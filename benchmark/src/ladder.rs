//! The traced run: the workload again under spans, then the layer
//! ladder over the same trace.
//!
//! The ladder climbs the path one reading takes — kernels alone →
//! `SensorRuntime` → `Pipeline` → `Engine` → in-process `Collector`
//! (fsync never / batch:64 / retention) → loopback `Server` (v2, then
//! a v1 pass) → in-process `Federation` — timing each rung from
//! outside, through the crates' public functions only. Each rung's
//! delta to the rung below is that layer's cost. Nothing here feeds an
//! end-to-end number.

use crate::analyze::{self, traced_pipeline};
use crate::federate::{self, reopen_fleet, route_all};
use crate::host::discard;
use crate::ingest::{
    self, gateway_config, reopen, serve_closed_loop, Retention, BATCH as INGEST_BATCH, FSYNC,
};
use crate::inputs::{batches, Batch, Field};
use crate::paced;
use crate::report::{Metric, Outcome};
use crate::span::Tracer;
use crate::stats::{median, percentile, Tally};
use crate::{repeat, Ctx};
use sentinet_cluster::ModelStates;
use sentinet_controller::{FederationConfig, PartitionId, PartitionMap};
use sentinet_core::{
    decode_pipeline, encode_pipeline, identify_states, FilterPolicy, Pipeline, PipelineConfig,
    SensorRuntime, Windower, BOT_SYMBOL,
};
use sentinet_engine::Engine;
use sentinet_filter::{AlarmFilter, KOfNFilter, Sprt, SprtAlarmFilter};
use sentinet_gateway::crc::crc32;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    decode_collector, encode_collector, merge_snapshot, split_snapshot, Collector, FrameBuffer,
    FsyncPolicy, GatewayConfig, Message, ReorderBuffer, SensorUplink, Server, ServerConfig,
    UplinkConfig, Wal, WalConfig, WalRecord,
};
use sentinet_hmm::structure::StructureCache;
use sentinet_hmm::OnlineHmmEstimator;
use sentinet_sim::{RawRecord, SensorId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Readings the collector-and-above rungs push: the whole trace of the
/// narrow workloads, the first hours of `analyze`'s wide one. Costs
/// are compared per reading, so a rung may be shorter than its
/// neighbour.
const LADDER_READINGS: usize = 140_000;
/// Passes of each whole-trace rung; the rung's figure is the median.
const PASSES: u32 = 3;
/// A rung that has already run this long skips its remaining passes: on
/// the wide field one retention or federation pass takes seconds, and
/// the traced run has to fit the driver's time cap.
const RUNG_BUDGET_S: f64 = 1.5;
/// Readings of the one stop-and-wait pass (≈ 75 µs of thread wake-ups
/// each over loopback).
const V1_READINGS: usize = 4_096;
/// Records between two collector snapshots in the codec rung.
const SNAPSHOT_EVERY: usize = 8_192;

/// What the traced workload reps hand the ladder.
struct Top {
    field: Field,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Wall nanoseconds the top rung took and how much of that the
    /// rungs below plus the top layer's own public clocks account for
    /// is worked out in [`unexplained`]; these are its inputs.
    kind: TopKind,
}

enum TopKind {
    Analyze,
    /// Median traced serve wall and the server's own decode+ack clocks.
    Served {
        retention: Retention,
        wall_s: f64,
        own_s: f64,
    },
    /// Median over the traced reps of each rep's p50 due→ack batch
    /// latency and of the generator's own p99 lateness, ms.
    Paced {
        ack_p50_ms: f64,
        late_p99_ms: f64,
    },
    Federated {
        wall_s: f64,
        pauses_s: f64,
    },
}

fn shares(ctx: &Ctx) -> (f64, f64) {
    (ctx.seconds / 8.0, ctx.seconds / 4.0)
}

/// Up to [`PASSES`] passes of one rung, stopping early once the rung
/// has used [`RUNG_BUDGET_S`].
fn passes(mut pass: impl FnMut(u32)) {
    let clock = Instant::now();
    for n in 0..PASSES {
        pass(n);
        if clock.elapsed().as_secs_f64() > RUNG_BUDGET_S {
            break;
        }
    }
}

fn top_analyze(
    ctx: &Ctx,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    tally: &mut Tally,
) -> Top {
    let prep = analyze::prepare(ctx.seed);
    let (plain, traced) = shares(ctx);
    let mut untraced_s = Vec::new();
    repeat(plain, |_| {
        let serial_s = analyze::serial_rep(&prep.field).seconds;
        untraced_s.push(serial_s + analyze::sharded_rep(&prep.field).0);
    });
    let mut traced_s = Vec::new();
    let n = prep.field.records.len() as u64;
    repeat(traced, |rep| {
        let start = Instant::now();
        let why = analyze::traced_rep(&prep, tracer, rep);
        traced_s.push(start.elapsed().as_secs_f64());
        tally.add_rep(n, 0, why.is_empty());
        failures.extend(why);
    });
    Top {
        field: prep.field,
        untraced_s,
        traced_s,
        kind: TopKind::Analyze,
    }
}

fn top_served(
    ctx: &Ctx,
    retention: Retention,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    tally: &mut Tally,
) -> Top {
    let prep = ingest::prepare(ctx, ctx.seed);
    let (plain, traced) = shares(ctx);
    let f = &prep.field;
    let mut untraced_s = Vec::new();
    repeat(plain, |_| {
        let dir = ctx.scratch.fresh("ingest-plain");
        let served = serve_closed_loop(
            gateway_config(&dir, f.sample_period, FSYNC, retention),
            &f.records,
        );
        untraced_s.push(served.wall_s);
        discard(&dir);
    });
    let mut traced_s = Vec::new();
    let mut own_s = Vec::new();
    repeat(traced, |rep| {
        let (served, why) = ingest::traced_rep(ctx, &prep, retention, tracer, rep);
        traced_s.push(served.wall_s);
        own_s.push((served.server.decode_ns + served.server.ack_ns) as f64 / 1e9);
        tally.add_rep(
            f.records.len() as u64,
            ingest::failed_readings(&served.report, &served.uplink, f.records.len()),
            why.is_empty(),
        );
        failures.extend(why);
    });
    let kind = TopKind::Served {
        retention,
        wall_s: median(&traced_s),
        own_s: median(&own_s),
    };
    Top {
        field: prep.field,
        untraced_s,
        traced_s,
        kind,
    }
}

fn top_paced(ctx: &Ctx, tracer: &mut Tracer, failures: &mut Vec<String>, tally: &mut Tally) -> Top {
    let prep = ingest::prepare(ctx, ctx.seed);
    let (plain, traced) = shares(ctx);
    let f = &prep.field;
    let plan = paced::Plan::new(&f.records);
    let mut untraced_s = Vec::new();
    repeat(plain, |_| {
        let dir = ctx.scratch.fresh("paced-plain");
        let config = gateway_config(&dir, f.sample_period, FSYNC, Retention::Off);
        untraced_s.push(paced::serve_paced(config, &plan, paced::RATE).wall_s);
        discard(&dir);
    });
    let (mut traced_s, mut late) = (Vec::new(), Vec::new());
    let mut p50 = Vec::new();
    repeat(traced, |rep| {
        let (run, why) = paced::traced_rep(ctx, &prep, &plan, tracer, rep);
        traced_s.push(run.wall_s);
        late.push(run.late_p99_ms());
        let ms = run.latencies_ms();
        if !ms.is_empty() {
            p50.push(percentile(&ms, 50.0));
        }
        tally.add_rep(f.records.len() as u64, run.unacked, why.is_empty());
        failures.extend(why);
    });
    let kind = TopKind::Paced {
        ack_p50_ms: if p50.is_empty() { 0.0 } else { median(&p50) },
        late_p99_ms: median(&late),
    };
    Top {
        field: prep.field,
        untraced_s,
        traced_s,
        kind,
    }
}

fn top_federated(
    ctx: &Ctx,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    tally: &mut Tally,
) -> Top {
    let prep = federate::prepare(ctx, ctx.seed);
    let (plain, traced) = shares(ctx);
    let f = &prep.field;
    let mut untraced_s = Vec::new();
    repeat(plain, |_| {
        let root = ctx.scratch.fresh("fleet-plain");
        untraced_s.push(route_all(&root, f, &f.records, FSYNC, federate::MIGRATIONS, false).wall_s);
        discard(&root);
    });
    let (mut traced_s, mut pauses) = (Vec::new(), Vec::new());
    repeat(traced, |rep| {
        let root = ctx.scratch.fresh("fleet-traced");
        let base = tracer.now();
        let run = route_all(&root, f, &f.records, FSYNC, federate::MIGRATIONS, true);
        let end = tracer.now();
        let span = tracer.push("rep", None, rep, base, end, 1);
        record_routes(tracer, Some(span), rep, base, &run.route_ns, run.finish_s);
        traced_s.push(run.wall_s);
        pauses.push(run.pauses_ms.iter().sum::<f64>() / 1e3);
        let why: Vec<String> = federate::check(&run, &prep, federate::MIGRATIONS)
            .into_iter()
            .map(|w| format!("rep {rep}: {w}"))
            .collect();
        tally.add_rep(
            f.records.len() as u64,
            federate::failed_readings(&run.fleet, f.records.len()),
            why.is_empty(),
        );
        failures.extend(why);
        discard(&root);
    });
    let kind = TopKind::Federated {
        wall_s: median(&traced_s),
        pauses_s: median(&pauses),
    };
    Top {
        field: prep.field,
        untraced_s,
        traced_s,
        kind,
    }
}

/// Lays one routed run's per-call gaps out as consecutive spans
/// starting at `base`, with the `finish()` call after them.
fn record_routes(
    tracer: &mut Tracer,
    parent: Option<u32>,
    rep: u32,
    base: u64,
    route_ns: &[u32],
    finish_s: f64,
) {
    let mut at = base;
    for &ns in route_ns {
        tracer.push("federation.route", parent, rep, at, at + u64::from(ns), 1);
        at += u64::from(ns);
    }
    tracer.push(
        "federation.finish",
        parent,
        rep,
        at,
        at + (finish_s * 1e9) as u64,
        1,
    );
}

/// The configured alarm filter, built the way `SensorRuntime` builds
/// it.
fn configured_filter(config: &PipelineConfig) -> Box<dyn AlarmFilter> {
    match config.filter {
        FilterPolicy::KOfN { k, n } => Box::new(KOfNFilter::new(k, n)),
        FilterPolicy::Sprt {
            p0,
            p1,
            alpha,
            beta,
        } => Box::new(SprtAlarmFilter::new(Sprt::new(p0, p1, alpha, beta))),
    }
}

/// The kernels alone, replaying what the pipeline would feed them.
/// Returns the total nanoseconds the kernels took over the trace — the
/// bottom rung.
fn kernels(field: &Field, tracer: &mut Tracer) -> f64 {
    let config = PipelineConfig::default();
    // A plain run supplies the inputs: the learned model states and
    // every sensor's raw-alarm history.
    let mut reference = Pipeline::new(config.clone(), field.sample_period);
    reference.process_trace(&field.trace);
    let Some(states) = reference.model_states().cloned() else {
        return 0.0;
    };

    // core::window — one chunk of pushes per window. A completed
    // window is copied for the kernels below and handed back, as the
    // pipeline hands it back, so the next window reuses its buffers;
    // the copy is made between chunks, off the clock.
    let mut windower = Windower::new(field.window_seconds());
    let mut windows = Vec::new();
    let mut start = tracer.now();
    let mut calls = 0u64;
    for (time, sensor, reading) in field.trace.delivered() {
        let done = windower.push(time, sensor, reading.values());
        calls += 1;
        if !done.is_empty() {
            let now = tracer.now();
            tracer.push("core.windower_push", None, 0, start, now, calls);
            for w in done {
                windows.push(w.clone());
                windower.recycle(w);
            }
            start = tracer.now();
            calls = 0;
        }
    }
    let now = tracer.now();
    tracer.push("core.windower_push", None, 0, start, now, calls.max(1));
    windows.extend(windower.finish());

    // core::window::identify_states and cluster — one span per window.
    let active: Vec<Vec<f64>> = states
        .active_states()
        .into_iter()
        .filter_map(|i| states.centroid(i).map(<[f64]>::to_vec))
        .collect();
    let mut learning = ModelStates::new(active, config.cluster.clone());
    let mut identified = Vec::with_capacity(windows.len());
    for w in &windows {
        let ws = tracer.time("core.identify_states", None, 0, 1, || {
            identify_states(w, &states, config.observable_trim, config.majority_fraction)
        });
        if let Some(ws) = &ws {
            let points: Vec<Vec<f64>> = ws.representatives.values().cloned().collect();
            tracer.time("cluster.assign", None, 0, 1, || {
                black_box(learning.assign(&points));
            });
            tracer.time("cluster.update", None, 0, 1, || {
                black_box(learning.update(&points));
            });
        }
        identified.push(ws);
    }
    tracer.count("cluster.states", learning.active_states().len() as u64);

    // core::runtime — one chunk of steps per decisive window — and the
    // (correct, symbol) sequences M_CE would see.
    let slots = states.num_slots();
    let mut runtimes: BTreeMap<SensorId, SensorRuntime> = BTreeMap::new();
    let mut sequences: BTreeMap<SensorId, Vec<(usize, usize)>> = BTreeMap::new();
    for (index, ws) in identified.iter().enumerate() {
        let Some(ws) = ws.as_ref().filter(|ws| ws.decisive) else {
            continue;
        };
        for &id in ws.labels.keys() {
            runtimes
                .entry(id)
                .or_insert_with(|| SensorRuntime::new(&config, slots));
        }
        let start = tracer.now();
        for (&id, &label) in &ws.labels {
            if let Some(rt) = runtimes.get_mut(&id) {
                black_box(rt.step(index as u64, label, ws.correct));
            }
        }
        let now = tracer.now();
        tracer.push(
            "core.runtime_step",
            None,
            0,
            start,
            now,
            ws.labels.len() as u64,
        );
        for (&id, &label) in &ws.labels {
            let symbol = if label != ws.correct {
                label + 1
            } else {
                BOT_SYMBOL
            };
            sequences.entry(id).or_default().push((ws.correct, symbol));
        }
    }

    // hmm — the faulted sensors' sequences (every sensor's, on a clean
    // field): observe alone as one chunk per sensor, then the three
    // structural analyses after every observe.
    let chosen: Vec<SensorId> = if field.faulted.is_empty() {
        sequences.keys().copied().collect()
    } else {
        field.faulted.iter().map(|(s, _)| *s).collect()
    };
    let mut recomputes = 0;
    for id in &chosen {
        let Some(seq) = sequences.get(id).filter(|s| !s.is_empty()) else {
            continue;
        };
        let fresh = || {
            OnlineHmmEstimator::new(slots, slots + 1, config.beta, config.gamma)
                .expect("pipeline learning factors are valid")
        };
        let mut est = fresh();
        tracer.time("hmm.observe", None, 0, seq.len() as u64, || {
            for &(c, s) in seq {
                est.observe(c, s).expect("state and symbol within dims");
            }
        });
        let mut est = fresh();
        let mut cache = StructureCache::new();
        for &(c, s) in seq {
            est.observe(c, s).expect("state and symbol within dims");
            let generation = est.generation();
            let b = est.observation();
            tracer.time("hmm.structure", None, 0, 1, || {
                black_box(
                    cache
                        .orthogonality(generation, b, config.ortho, None)
                        .is_orthogonal(),
                );
                black_box(cache.stuck_at(generation, b, config.stuck_at_threshold, None));
                black_box(cache.association(generation, b, config.association_threshold, None));
            });
        }
        recomputes += cache.recomputes();
    }
    tracer.count("hmm.structure_recomputes", recomputes);

    // filter — the configured filter over each sensor's raw alarms.
    for id in reference.sensor_ids() {
        let Some(history) = reference.raw_alarm_history(id).filter(|h| !h.is_empty()) else {
            continue;
        };
        let mut filter = configured_filter(&config);
        tracer.time("filter.push", None, 0, history.len() as u64, || {
            for &(_, raw) in history {
                black_box(filter.push(raw));
            }
        });
    }

    [
        "core.windower_push",
        "core.identify_states",
        "cluster.update",
        "core.runtime_step",
    ]
    .iter()
    .map(|n| tracer.total(n).0 as f64)
    .sum()
}

/// Pipeline and engine rungs over the whole trace. Returns the median
/// seconds of (traced serial pass, plain serial pass).
fn detector_rungs(field: &Field, tracer: &mut Tracer) -> (f64, f64) {
    let mut traced = Vec::new();
    let mut last = None;
    for pass in 0..PASSES {
        let start = Instant::now();
        last = Some(traced_pipeline(field, tracer, None, pass));
        traced.push(start.elapsed().as_secs_f64());
    }
    let mut plain = Vec::new();
    for _ in 0..PASSES {
        let start = Instant::now();
        let mut p = Pipeline::new(PipelineConfig::default(), field.sample_period);
        black_box(p.process_trace(&field.trace));
        black_box(p.classify_all());
        plain.push(start.elapsed().as_secs_f64());
    }
    if let Some(p) = last {
        let snapshot = p.snapshot();
        for _ in 0..5 {
            let text = tracer.time("core.snapshot_encode", None, 0, 1, || {
                encode_pipeline(&snapshot)
            });
            tracer.time("core.snapshot_decode", None, 0, 1, || {
                black_box(decode_pipeline(&text).is_ok());
            });
            tracer.count("core.snapshot_bytes", text.len() as u64);
            tracer.count("core.snapshot_bytes.n", 1);
        }
    }
    for (name, shards) in [("engine.s1", 1), ("engine.s2", 2)] {
        for pass in 0..PASSES {
            let engine = Engine::new(PipelineConfig::default(), field.sample_period, shards);
            let span = tracer.open(name, None, pass);
            let windows = engine
                .process_trace(&field.trace)
                .map_or(1, |r| r.windows_processed().max(1));
            tracer.close(span, windows);
        }
    }
    (median(&traced), median(&plain))
}

/// `gateway::frame`, `crc`, `reorder`, `wal` and `snapshot` on their
/// own, fed the ladder slice in 256-reading batches.
fn gateway_kernels(
    ctx: &Ctx,
    field: &Field,
    slice: &[RawRecord],
    batched: &[Batch],
    tracer: &mut Tracer,
) {
    // frame + crc
    let mut frames = Vec::with_capacity(batched.len());
    for b in batched {
        let msg = Message::DataBatch {
            sensor: b.sensor,
            first_seq: b.first_seq,
            readings: b.readings.clone(),
        };
        frames.push(
            tracer.time("frame.encode", None, 0, b.readings.len() as u64, || {
                encode_frame(&msg)
            }),
        );
    }
    let mut fb = FrameBuffer::new();
    for (frame, b) in frames.iter().zip(batched) {
        tracer.time("frame.decode", None, 0, b.readings.len() as u64, || {
            fb.feed(frame);
            black_box(fb.next_message().is_ok());
        });
    }
    let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
    tracer.count("frame.bytes", bytes);
    tracer.time("crc.crc32", None, 0, bytes, || {
        for f in &frames {
            black_box(crc32(f));
        }
    });

    // reorder — arrival order is batch order.
    let template = gateway_config(
        ctx.scratch.root(),
        field.sample_period,
        FSYNC,
        Retention::Off,
    );
    let mut reorder = ReorderBuffer::new(template.reorder.clone());
    let mut released = Vec::new();
    for b in batched {
        tracer.time("reorder.offer", None, 0, b.readings.len() as u64, || {
            for (time, values) in &b.readings {
                black_box(reorder.offer(RawRecord {
                    time: *time,
                    sensor: b.sensor,
                    values: values.clone(),
                }));
                reorder.drain_ready(&mut released);
                released.clear();
            }
        });
    }
    tracer.count("reorder.late", reorder.stats().late as u64);

    // wal — a standalone log under fsync=never, so a write is only a
    // write and every sync is the explicit one being timed.
    let records = |b: &Batch| -> Vec<WalRecord> {
        b.readings
            .iter()
            .enumerate()
            .map(|(i, (time, values))| WalRecord {
                sensor: b.sensor,
                seq: b.first_seq + i as u64,
                time: *time,
                values: values.clone(),
            })
            .collect()
    };
    let dir = ctx.scratch.fresh("wal-extents");
    let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).expect("open standalone wal");
    for b in batched {
        let extent = records(b);
        tracer.time("wal.append_many", None, 0, 1, || {
            wal.append_many(&extent).expect("append extent");
        });
        tracer.time("wal.sync", None, 0, 1, || {
            wal.sync().expect("sync extent");
        });
    }
    tracer.count("wal.bytes", wal.total_bytes());
    tracer.count("wal.records", wal.records_logged());
    drop(wal);
    tracer.time("wal.open_scan", None, 0, slice.len() as u64, || {
        black_box(
            Wal::open(WalConfig::new(&dir), None)
                .expect("reopen standalone wal")
                .1
                .len(),
        );
    });
    discard(&dir);
    let dir = ctx.scratch.fresh("wal-records");
    let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).expect("open standalone wal");
    for b in batched {
        let extent = records(b);
        tracer.time("wal.append", None, 0, extent.len() as u64, || {
            for r in &extent {
                wal.append(r).expect("append record");
            }
        });
    }
    drop(wal);
    discard(&dir);

    // snapshot — the codec on a live collector's state, every 8192
    // records.
    let dir = ctx.scratch.fresh("snapshots");
    let config = gateway_config(
        &dir,
        field.sample_period,
        FsyncPolicy::Never,
        Retention::Off,
    );
    let (mut collector, _) = Collector::open(config).expect("open collector");
    let mid = field.sensors / 2;
    let mut fed = 0usize;
    let mut next = SNAPSHOT_EVERY;
    for b in batched {
        collector
            .deliver_batch(b.sensor, b.first_seq, &b.readings)
            .expect("deliver batch");
        fed += b.readings.len();
        if fed >= next {
            next += SNAPSHOT_EVERY;
            let snap = collector.snapshot();
            let text = tracer.time("snapshot.encode", None, 0, 1, || encode_collector(&snap));
            tracer.time("snapshot.decode", None, 0, 1, || {
                black_box(decode_collector(&text).is_ok());
            });
            tracer.count("snapshot.bytes", text.len() as u64);
            tracer.count("snapshot.bytes.n", 1);
            let (inside, outside) = tracer.time("snapshot.split", None, 0, 1, || {
                split_snapshot(&snap, mid..field.sensors)
            });
            tracer.time("snapshot.merge", None, 0, 1, || {
                black_box(merge_snapshot(&outside, &inside));
            });
        }
    }
    drop(collector);
    discard(&dir);
}

/// One in-process collector pass: `deliver_batch` + `sync_wal` per
/// batch, then `finish`. Returns the wall seconds of the feed.
fn in_process_pass(
    config: GatewayConfig,
    batched: &[Batch],
    tracer: &mut Tracer,
    spans: bool,
    pass: u32,
) -> (f64, sentinet_gateway::GatewayReport) {
    let (mut collector, _) = Collector::open(config).expect("open collector");
    let start = Instant::now();
    for b in batched {
        if spans {
            tracer.time("collector.deliver_batch", None, pass, 1, || {
                collector
                    .deliver_batch(b.sensor, b.first_seq, &b.readings)
                    .expect("deliver batch");
            });
        } else {
            collector
                .deliver_batch(b.sensor, b.first_seq, &b.readings)
                .expect("deliver batch");
        }
        collector.sync_wal().expect("sync wal");
    }
    let wall = start.elapsed().as_secs_f64();
    if spans {
        let t = collector.stage_timings();
        tracer.count("collector.stage_admission_ns", t.admission_ns);
        tracer.count("collector.stage_wal_append_ns", t.wal_append_ns);
        tracer.count("collector.stage_fsync_ns", t.fsync_ns);
        tracer.count("collector.stage.n", 1);
    }
    let report = if spans {
        tracer.time("collector.finish", None, pass, 1, || collector.finish())
    } else {
        collector.finish()
    }
    .expect("finish collector");
    (wall, report)
}

/// Collector rungs. Returns median feed seconds under
/// (never, batch:64, retention).
fn collector_rungs(
    ctx: &Ctx,
    field: &Field,
    slice: &[RawRecord],
    batched: &[Batch],
    tracer: &mut Tracer,
) -> [f64; 3] {
    let mut out = [0.0; 3];
    let policies = [
        ("never", FsyncPolicy::Never, Retention::Off),
        ("batch64", FSYNC, Retention::Off),
        ("retain", FSYNC, Retention::On),
    ];
    for (i, (label, fsync, retention)) in policies.into_iter().enumerate() {
        let mut walls = Vec::new();
        passes(|pass| {
            let dir = ctx.scratch.fresh(label);
            let config = gateway_config(&dir, field.sample_period, fsync, retention);
            let spans = label == "batch64";
            let (wall, report) = in_process_pass(config.clone(), batched, tracer, spans, pass);
            walls.push(wall);
            if label == "retain" && pass == 0 {
                tracer.count(
                    "collector.reclaimed_segments",
                    report.storage.reclaimed_segments as u64,
                );
            }
            if spans {
                let span = tracer.open("collector.open", None, pass);
                let (_, info, _) = reopen(config);
                tracer.close(span, 1);
                if pass == 0 {
                    tracer.count("collector.replayed", info.replayed);
                }
            }
            discard(&dir);
        });
        out[i] = median(&walls);
    }
    // The v1 admission path, one `deliver` per reading, under
    // fsync=never so the figure is admission + append, not the disk.
    let dir = ctx.scratch.fresh("deliver");
    let config = gateway_config(
        &dir,
        field.sample_period,
        FsyncPolicy::Never,
        Retention::Off,
    );
    let (mut collector, _) = Collector::open(config).expect("open collector");
    let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
    for chunk in slice.chunks(INGEST_BATCH) {
        tracer.time("collector.deliver", None, 0, chunk.len() as u64, || {
            for r in chunk {
                let seq = seqs.entry(r.sensor).or_insert(0);
                collector
                    .deliver(r.sensor, *seq, r.time, r.values.clone())
                    .expect("deliver reading");
                *seq += 1;
            }
        });
    }
    drop(collector);
    discard(&dir);
    out
}

/// What the open-loop passes of the server rung saw: each pass's p50
/// and p99 due→ack batch latency and the generator's own p99 lateness,
/// median over the passes, ms.
#[derive(Debug, Clone, Copy, Default)]
struct OpenLoop {
    ack_p50_ms: f64,
    ack_p99_ms: f64,
    late_p99_ms: f64,
}

/// Open-loop passes over the ladder slice: the benchmark's own paced
/// client at [`paced::RATE`], so every traced run carries the latency
/// figures, whatever its workload. A pass whose generator ran late
/// keeps its lateness and drops its latencies.
fn open_loop_rung(ctx: &Ctx, field: &Field, slice: &[RawRecord]) -> OpenLoop {
    let plan = paced::Plan::new(slice);
    let (mut p50, mut p99, mut late) = (Vec::new(), Vec::new(), Vec::new());
    passes(|_| {
        let dir = ctx.scratch.fresh("loopback-paced");
        let config = gateway_config(&dir, field.sample_period, FSYNC, Retention::Off);
        let run = paced::serve_paced(config, &plan, paced::RATE);
        late.push(run.late_p99_ms());
        let ms = run.latencies_ms();
        if paced::generator_kept_up(&run) && !ms.is_empty() {
            p50.push(percentile(&ms, 50.0));
            p99.push(percentile(&ms, 99.0));
        }
        discard(&dir);
    });
    let med_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    OpenLoop {
        ack_p50_ms: med_or_zero(&p50),
        ack_p99_ms: med_or_zero(&p99),
        late_p99_ms: med_or_zero(&late),
    }
}

/// Loopback server rungs: closed-loop v2 passes, then one v1 pass.
/// Returns the median v2 wall seconds.
fn server_rungs(ctx: &Ctx, field: &Field, slice: &[RawRecord], tracer: &mut Tracer) -> f64 {
    let mut walls = Vec::new();
    passes(|pass| {
        let dir = ctx.scratch.fresh("loopback");
        let config = gateway_config(&dir, field.sample_period, FSYNC, Retention::Off);
        let span = tracer.open("server.serve", None, pass);
        let served = serve_closed_loop(config, slice);
        tracer.close(span, slice.len() as u64);
        ingest::record_stages(tracer, &served);
        walls.push(served.wall_s);
        discard(&dir);
    });
    // Stop-and-wait: one `Data` frame, one ack per reading.
    let dir = ctx.scratch.fresh("loopback-v1");
    let config = gateway_config(&dir, field.sample_period, FSYNC, Retention::Off);
    let (mut collector, _) = Collector::open(config).expect("open collector");
    let server = Server::start(ServerConfig::default()).expect("bind loopback server");
    let addr = server.addr().to_string();
    let readings = &slice[..slice.len().min(V1_READINGS)];
    let epoch = tracer.epoch();
    let (stats, rtts) = std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let mut config = UplinkConfig::new(addr);
            config.ack_timeout = ingest::ACK_TIMEOUT;
            let mut uplink = SensorUplink::new(config);
            let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
            let mut rtts = Vec::with_capacity(readings.len());
            for r in readings {
                let seq = seqs.entry(r.sensor).or_insert(0);
                let start = epoch.elapsed().as_nanos() as u64;
                uplink
                    .send_at(r.sensor, *seq, r.time, &r.values)
                    .expect("stop-and-wait send over loopback");
                rtts.push((start, epoch.elapsed().as_nanos() as u64));
                *seq += 1;
            }
            let stats = uplink.stats();
            uplink.finish().expect("fin/finack");
            (stats, rtts)
        });
        server.run(&mut collector).expect("serve loopback stream");
        client.join().expect("v1 client thread")
    });
    for (start, end) in rtts {
        tracer.push("server.v1_rtt", None, 0, start, end, 1);
    }
    tracer.count("client.retransmits", stats.retransmits);
    tracer.count("client.timeouts", stats.timeouts);
    tracer.count("client.nacks", stats.nacks);
    drop(collector);
    discard(&dir);
    median(&walls)
}

/// Federation rung and the rung below it: the same four sub-traces
/// through four bare in-process collectors, fed in the shape the
/// in-process link flushes (single-reading batches, one `sync_wal` per
/// flush). Returns median seconds of (federation routing net of
/// pauses, bare feed, bare finish + replay) and the median
/// milliseconds one handoff held the stream.
fn federation_rungs(
    ctx: &Ctx,
    field: &Field,
    slice: &[RawRecord],
    tracer: &mut Tracer,
) -> [f64; 4] {
    let map = PartitionMap::split_even(field.sensors, federate::PARTITIONS).expect("partition map");
    // partition lookups on their own
    for chunk in slice.chunks(INGEST_BATCH) {
        tracer.time("partition.lookup", None, 0, chunk.len() as u64, || {
            for r in chunk {
                black_box(map.partition_of(r.sensor));
            }
        });
    }
    let (mut routing, mut pauses_ms) = (Vec::new(), Vec::new());
    passes(|pass| {
        let root = ctx.scratch.fresh("fleet-rung");
        let base = tracer.now();
        let run = route_all(&root, field, slice, FSYNC, federate::MIGRATIONS, true);
        record_routes(tracer, None, pass, base, &run.route_ns, run.finish_s);
        let paused: f64 = run.pauses_ms.iter().sum::<f64>() / 1e3;
        routing.push(run.wall_s - run.finish_s - paused);
        pauses_ms.extend(run.pauses_ms.iter().copied());
        if pass == 0 {
            tracer.count(
                "federation.migrations_completed",
                run.fleet.counters.migrations_completed,
            );
        }
        discard(&root);
    });

    let flush_every = FederationConfig::default().flush_every;
    let (mut feeds, mut closes) = (Vec::new(), Vec::new());
    passes(|pass| {
        let root = ctx.scratch.fresh("bare-collectors");
        let mut collectors: Vec<Collector> = (0..federate::PARTITIONS)
            .map(|p| {
                let mut config = federate::template(field.sample_period, FSYNC);
                config.wal.dir = root.join(format!("p{p}"));
                Collector::open(config).expect("open bare collector").0
            })
            .collect();
        let mut pending = [0usize; federate::PARTITIONS];
        let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
        let start = Instant::now();
        for r in slice {
            let p: PartitionId = map.partition_of(r.sensor).expect("sensor inside the map");
            let seq = seqs.entry(r.sensor).or_insert(0);
            collectors[p]
                .deliver_batch(r.sensor, *seq, &[(r.time, r.values.clone())])
                .expect("deliver reading");
            *seq += 1;
            pending[p] += 1;
            if pending[p] >= flush_every {
                collectors[p].sync_wal().expect("sync wal");
                pending[p] = 0;
            }
        }
        feeds.push(start.elapsed().as_secs_f64());
        if pass == 0 {
            // What a handoff of partition 0's upper half would ship.
            let range = map.range(0);
            let mid = range.start + range.len() / 2;
            if let Ok((inside, _)) = collectors[0].export_range(mid..range.end) {
                tracer.count(
                    "federation.cut_bytes",
                    encode_collector(&inside).len() as u64,
                );
            }
        }
        let start = Instant::now();
        for c in collectors {
            c.finish().expect("finish bare collector");
        }
        reopen_fleet(&root, field.sample_period, federate::PARTITIONS);
        closes.push(start.elapsed().as_secs_f64());
        discard(&root);
    });
    let pause_ms = if pauses_ms.is_empty() {
        0.0
    } else {
        median(&pauses_ms)
    };
    [median(&routing), median(&feeds), median(&closes), pause_ms]
}

fn med(tracer: &Tracer, name: &str) -> f64 {
    let v = tracer.per_call(name);
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn pct(tracer: &Tracer, name: &str, p: f64) -> f64 {
    let v = tracer.per_call(name);
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, p)
    }
}

fn mean_count(tracer: &Tracer, name: &str) -> f64 {
    let n = tracer.counted(&format!("{name}.n")).max(1);
    tracer.counted(name) as f64 / n as f64
}

/// The part of the workload's top rung that neither the rung below it
/// nor the top layer's own public clocks account for.
fn unexplained(top: &Top, tracer: &Tracer, rung: &Rungs, readings: f64) -> f64 {
    let (whole, explained) = match top.kind {
        TopKind::Analyze => (
            rung.traced_pipeline_s * 1e9,
            rung.kernels_ns + med(tracer, "core.classify_all"),
        ),
        TopKind::Served {
            retention,
            wall_s,
            own_s,
        } => {
            // The in-process rung ran over the ladder slice; scale it
            // per reading to the workload's trace.
            let below = match retention {
                Retention::Off => rung.in_process_s[1],
                Retention::On => rung.in_process_s[2],
            } / rung.slice_readings
                * readings;
            (wall_s, below + own_s)
        }
        TopKind::Paced { ack_p50_ms, .. } => {
            // Where a median batch's latency goes: its own decode and
            // admission (scaled from the 256-reading figures) plus one
            // median group commit.
            let scale = paced::BATCH as f64;
            let per_batch = scale
                * (med(tracer, "frame.decode")
                    + med(tracer, "collector.deliver_batch") / INGEST_BATCH as f64);
            (ack_p50_ms * 1e6, per_batch + med(tracer, "wal.sync"))
        }
        TopKind::Federated { wall_s, pauses_s } => {
            let per_reading = (rung.bare_feed_s + rung.bare_close_s) / rung.slice_readings
                + med(tracer, "partition.lookup") / 1e9;
            (wall_s, per_reading * readings + pauses_s)
        }
    };
    if whole <= 0.0 {
        return 0.0;
    }
    ((whole - explained) / whole).max(0.0)
}

/// Rung totals the derived metrics need.
struct Rungs {
    kernels_ns: f64,
    traced_pipeline_s: f64,
    plain_pipeline_s: f64,
    in_process_s: [f64; 3],
    loopback_s: f64,
    fed_routing_s: f64,
    bare_feed_s: f64,
    bare_close_s: f64,
    migration_pause_ms: f64,
    open_loop: OpenLoop,
    slice_readings: f64,
}

pub fn run(ctx: &Ctx, workload: &'static str) -> Outcome {
    let mut tracer = Tracer::new();
    let mut failures = Vec::new();
    let mut tally = Tally::default();
    let top = match workload {
        "analyze" => top_analyze(ctx, &mut tracer, &mut failures, &mut tally),
        "ingest-saturate" => {
            top_served(ctx, Retention::Off, &mut tracer, &mut failures, &mut tally)
        }
        "ingest-retain" => top_served(ctx, Retention::On, &mut tracer, &mut failures, &mut tally),
        "ingest-paced" => top_paced(ctx, &mut tracer, &mut failures, &mut tally),
        _ => top_federated(ctx, &mut tracer, &mut failures, &mut tally),
    };
    let field = &top.field;
    let slice = &field.records[..field.records.len().min(LADDER_READINGS)];
    let batched = batches(slice, INGEST_BATCH);

    let kernels_ns = kernels(field, &mut tracer);
    let (traced_pipeline_s, plain_pipeline_s) = detector_rungs(field, &mut tracer);
    gateway_kernels(ctx, field, slice, &batched, &mut tracer);
    let in_process_s = collector_rungs(ctx, field, slice, &batched, &mut tracer);
    let loopback_s = server_rungs(ctx, field, slice, &mut tracer);
    let open_loop = open_loop_rung(ctx, field, slice);
    let [fed_routing_s, bare_feed_s, bare_close_s, migration_pause_ms] =
        federation_rungs(ctx, field, slice, &mut tracer);
    let rung = Rungs {
        kernels_ns,
        traced_pipeline_s,
        plain_pipeline_s,
        in_process_s,
        loopback_s,
        fed_routing_s,
        bare_feed_s,
        bare_close_s,
        migration_pause_ms,
        open_loop,
        slice_readings: slice.len() as f64,
    };

    let retransmits = tracer.counted("client.retransmits") + tracer.counted("client.timeouts");
    if retransmits > 0 {
        failures.push(format!(
            "ladder: the loopback client retransmitted or timed out {retransmits} time(s)"
        ));
    }
    if let TopKind::Paced { late_p99_ms, .. } = top.kind {
        if late_p99_ms > paced::MAX_LATE_P99_MS {
            failures.push(format!(
                "ladder: generator lagged {late_p99_ms:.3} ms at p99"
            ));
        }
    }

    let t = &tracer;
    let n = slice.len() as f64;
    let ns = |name: &str| med(t, name);
    let stage_s =
        |name: &str| t.counted(name) as f64 / t.counted("collector.stage.n").max(1) as f64 / 1e9;
    let served_runs = t.total("server.serve").1.max(1) as f64 / n;
    // name, unit, value — in `BENCHMARK.json` order.
    let table: [(&str, &'static str, f64); 71] = [
        ("hmm.observe_ns", "ns", ns("hmm.observe")),
        ("hmm.structure_ns", "ns", ns("hmm.structure")),
        (
            "hmm.structure_recomputes",
            "count",
            t.counted("hmm.structure_recomputes") as f64,
        ),
        ("cluster.update_ns", "ns", ns("cluster.update")),
        ("cluster.assign_ns", "ns", ns("cluster.assign")),
        (
            "cluster.states",
            "count",
            t.counted("cluster.states") as f64,
        ),
        ("filter.push_ns", "ns", ns("filter.push")),
        ("core.windower_push_ns", "ns", ns("core.windower_push")),
        ("core.identify_states_ns", "ns", ns("core.identify_states")),
        ("core.runtime_step_ns", "ns", ns("core.runtime_step")),
        (
            "core.pipeline_reading_ns",
            "ns",
            ns("core.pipeline_reading"),
        ),
        (
            "core.pipeline_window_p50_ns",
            "ns",
            pct(t, "core.pipeline_window", 50.0),
        ),
        (
            "core.pipeline_window_p99_ns",
            "ns",
            pct(t, "core.pipeline_window", 99.0),
        ),
        ("core.classify_all_ns", "ns", ns("core.classify_all")),
        ("core.snapshot_encode_ns", "ns", ns("core.snapshot_encode")),
        ("core.snapshot_decode_ns", "ns", ns("core.snapshot_decode")),
        (
            "core.snapshot_bytes",
            "bytes",
            mean_count(t, "core.snapshot_bytes"),
        ),
        ("engine.s1_window_ns", "ns", ns("engine.s1")),
        ("engine.s2_window_ns", "ns", ns("engine.s2")),
        (
            "engine.s2_vs_serial",
            "ratio",
            median(&t.durations("engine.s2")) / 1e9 / rung.plain_pipeline_s.max(f64::MIN_POSITIVE),
        ),
        (
            "frame.encode_ns",
            "ns",
            ns("frame.encode") * INGEST_BATCH as f64,
        ),
        (
            "frame.decode_ns",
            "ns",
            ns("frame.decode") * INGEST_BATCH as f64,
        ),
        (
            "frame.bytes_per_reading",
            "bytes",
            t.counted("frame.bytes") as f64 / n,
        ),
        (
            "crc.bytes_per_s",
            "bytes/s",
            1e9 / ns("crc.crc32").max(f64::MIN_POSITIVE),
        ),
        ("reorder.offer_ns", "ns", ns("reorder.offer")),
        ("reorder.late", "count", t.counted("reorder.late") as f64),
        ("wal.append_many_ns", "ns", ns("wal.append_many")),
        ("wal.append_ns", "ns", ns("wal.append")),
        ("wal.sync_p50_ns", "ns", pct(t, "wal.sync", 50.0)),
        ("wal.sync_p99_ns", "ns", pct(t, "wal.sync", 99.0)),
        ("wal.syncs", "count", t.total("wal.sync").1 as f64),
        (
            "wal.bytes_per_reading",
            "bytes",
            t.counted("wal.bytes") as f64 / t.counted("wal.records").max(1) as f64,
        ),
        ("wal.open_scan_ns", "ns", t.total("wal.open_scan").0 as f64),
        ("snapshot.encode_ns", "ns", ns("snapshot.encode")),
        ("snapshot.decode_ns", "ns", ns("snapshot.decode")),
        ("snapshot.bytes", "bytes", mean_count(t, "snapshot.bytes")),
        ("snapshot.split_ns", "ns", ns("snapshot.split")),
        ("snapshot.merge_ns", "ns", ns("snapshot.merge")),
        (
            "collector.deliver_batch_ns",
            "ns",
            ns("collector.deliver_batch"),
        ),
        ("collector.deliver_ns", "ns", ns("collector.deliver")),
        (
            "collector.inproc_readings_per_s.never",
            "readings/s",
            n / rung.in_process_s[0],
        ),
        (
            "collector.inproc_readings_per_s.batch64",
            "readings/s",
            n / rung.in_process_s[1],
        ),
        (
            "collector.inproc_readings_per_s.retain",
            "readings/s",
            n / rung.in_process_s[2],
        ),
        (
            "collector.stage_admission_s",
            "s",
            stage_s("collector.stage_admission_ns"),
        ),
        (
            "collector.stage_wal_append_s",
            "s",
            stage_s("collector.stage_wal_append_ns"),
        ),
        (
            "collector.stage_fsync_s",
            "s",
            stage_s("collector.stage_fsync_ns"),
        ),
        ("collector.open_ns", "ns", ns("collector.open")),
        (
            "collector.replayed",
            "count",
            t.counted("collector.replayed") as f64,
        ),
        (
            "collector.reclaimed_segments",
            "count",
            t.counted("collector.reclaimed_segments") as f64,
        ),
        ("collector.finish_ns", "ns", ns("collector.finish")),
        (
            "server.decode_s",
            "s",
            t.counted("server.decode_ns") as f64 / 1e9 / served_runs,
        ),
        (
            "server.ack_s",
            "s",
            t.counted("server.ack_ns") as f64 / 1e9 / served_runs,
        ),
        (
            "server.loopback_vs_inproc",
            "ratio",
            rung.loopback_s / rung.in_process_s[1],
        ),
        (
            "server.v1_rtt_p50_us",
            "us",
            pct(t, "server.v1_rtt", 50.0) / 1e3,
        ),
        (
            "server.v1_rtt_p99_us",
            "us",
            pct(t, "server.v1_rtt", 99.0) / 1e3,
        ),
        (
            "client.retransmits",
            "count",
            t.counted("client.retransmits") as f64,
        ),
        (
            "client.timeouts",
            "count",
            t.counted("client.timeouts") as f64,
        ),
        ("client.nacks", "count", t.counted("client.nacks") as f64),
        (
            "federation.route_p50_ns",
            "ns",
            pct(t, "federation.route", 50.0),
        ),
        (
            "federation.route_p99_ns",
            "ns",
            pct(t, "federation.route", 99.0),
        ),
        (
            "federation.vs_collectors",
            "ratio",
            rung.fed_routing_s / rung.bare_feed_s,
        ),
        (
            "federation.migrations_completed",
            "count",
            t.counted("federation.migrations_completed") as f64,
        ),
        (
            "federation.cut_bytes",
            "bytes",
            t.counted("federation.cut_bytes") as f64,
        ),
        ("federation.finish_ns", "ns", ns("federation.finish")),
        (
            "federation.migration_pause_ms",
            "ms",
            rung.migration_pause_ms,
        ),
        ("partition.lookup_ns", "ns", ns("partition.lookup")),
        ("ack_p50_ms", "ms", rung.open_loop.ack_p50_ms),
        ("ack_p99_ms", "ms", rung.open_loop.ack_p99_ms),
        ("gen.late_p99_ms", "ms", rung.open_loop.late_p99_ms),
        (
            "trace.overhead",
            "ratio",
            median(&top.traced_s) / median(&top.untraced_s),
        ),
        (
            "ladder.unexplained_share",
            "ratio",
            unexplained(&top, t, &rung, field.records.len() as f64),
        ),
    ];
    let metrics = table
        .into_iter()
        .map(|(name, unit, value)| Metric::exact(name, unit, value))
        .collect();

    // Calls, total and self time ride along with every span name, as
    // information.
    let mut info: Vec<Metric> = tracer
        .self_by_name()
        .into_iter()
        .flat_map(|(name, own)| {
            let (total_ns, calls) = tracer.total(name);
            [
                Metric::exact(format!("{name}.calls"), "count", calls as f64),
                Metric::exact(format!("{name}.total_ms"), "ms", total_ns as f64 / 1e6),
                Metric::exact(format!("{name}.self_ms"), "ms", own as f64 / 1e6),
            ]
        })
        .collect();
    info.push(Metric::exact("ladder.readings", "count", n));
    info.push(Metric::exact(
        "ladder.kernels_ms",
        "ms",
        rung.kernels_ns / 1e6,
    ));
    info.push(Metric::exact(
        "ladder.pipeline_ms",
        "ms",
        rung.plain_pipeline_s * 1e3,
    ));
    info.push(Metric::exact(
        "ladder.loopback_ms",
        "ms",
        rung.loopback_s * 1e3,
    ));
    info.push(Metric::exact(
        "ladder.federation_routing_ms",
        "ms",
        rung.fed_routing_s * 1e3,
    ));
    info.push(Metric::exact("trace.spans", "count", tracer.len() as f64));

    let path = ctx.out.join(format!("trace-{workload}.json"));
    if let Err(e) = tracer.write(&path, workload) {
        failures.push(format!("could not write {}: {e}", path.display()));
    }
    Outcome {
        workload,
        traced: true,
        tally,
        metrics,
        info,
        failures,
    }
}
