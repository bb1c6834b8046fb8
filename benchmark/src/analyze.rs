//! `analyze`: a wide faulted field through the detector alone — the
//! serial `Pipeline` in every rep, the 2-shard `Engine` in every
//! fourth — with no IO.

use crate::inputs::{field, Field};
use crate::report::{EndToEnd, Metric};
use crate::span::{SpanId, Tracer};
use crate::stats::{mean_of_lowest, summarize};
use crate::Ctx;
use sentinet_core::{encode_pipeline, Pipeline, PipelineConfig, PipelineReport, WindowOutcome};
use sentinet_engine::Engine;
use std::hint::black_box;
use std::time::Instant;

pub const SENSORS: u16 = 1000;
pub const DAYS: u64 = 3;
/// One sensor in twenty is faulted.
pub const FAULT_EVERY: u16 = 20;
pub const SHARDS: usize = 2;

pub struct Prepared {
    pub field: Field,
    /// The serial pipeline's report: what every rep must reproduce.
    pub reference: PipelineReport,
}

pub fn prepare(seed: u64) -> Prepared {
    let field = field(SENSORS, DAYS, seed, Some(FAULT_EVERY));
    let mut p = Pipeline::new(PipelineConfig::default(), field.sample_period);
    p.process_trace(&field.trace);
    let reference = p.report();
    Prepared { field, reference }
}

/// Share of the faulted sensors whose alarm delay is averaged. The
/// RandomNoise quarter of the faults alarms late or never by nature;
/// left in, a handful of 72s would decide the number.
const PROMPT_SHARE: f64 = 0.75;

/// Mean over the promptest three quarters of the faulted sensors of
/// (window of the first filtered alarm − window of the fault's onset).
/// Track records carry the pipeline's processed-window counter, which
/// skips bootstrap and empty windows, so they are mapped back to
/// stream windows through the outcomes' start times. A sensor that
/// never alarms is charged the whole trace — so once more than a
/// quarter never alarm, the number jumps.
pub fn detect_delay(field: &Field, pipeline: &Pipeline, outcomes: &[WindowOutcome]) -> f64 {
    let window = field.window_seconds();
    let delays: Vec<f64> = field
        .faulted
        .iter()
        .map(|&(sensor, onset)| {
            pipeline
                .tracks(sensor)
                .and_then(|t| t.first())
                .and_then(|t| outcomes.iter().find(|o| o.index == t.opened))
                .map_or(field.windows as f64, |o| {
                    (o.start / window).saturating_sub(onset) as f64
                })
        })
        .collect();
    mean_of_lowest(&delays, PROMPT_SHARE)
}

/// Same report, same rendering: the engine's bit-for-bit claim as an
/// operator would observe it.
fn same_report(a: &PipelineReport, b: &PipelineReport) -> bool {
    a == b && a.to_string() == b.to_string()
}

/// The serial half of one untraced rep.
pub struct SerialRep {
    pub seconds: f64,
    pub pipeline: Pipeline,
    pub outcomes: Vec<WindowOutcome>,
}

pub fn serial_rep(f: &Field) -> SerialRep {
    let start = Instant::now();
    let mut pipeline = Pipeline::new(PipelineConfig::default(), f.sample_period);
    let outcomes = pipeline.process_trace(black_box(&f.trace));
    black_box(pipeline.classify_all());
    SerialRep {
        seconds: start.elapsed().as_secs_f64(),
        pipeline,
        outcomes,
    }
}

/// The sharded half: wall seconds and what the engine reported.
pub fn sharded_rep(f: &Field) -> (f64, Result<PipelineReport, String>) {
    let start = Instant::now();
    let report = Engine::new(PipelineConfig::default(), f.sample_period, SHARDS)
        .process_trace(black_box(&f.trace))
        .map(|run| run.report())
        .map_err(|e| e.to_string());
    (start.elapsed().as_secs_f64(), report)
}

/// The serial half's output check; empty when it holds.
fn check_serial(serial: &Pipeline, reference: &PipelineReport) -> Vec<String> {
    if same_report(&serial.report(), reference) {
        Vec::new()
    } else {
        vec!["serial report differs from the set-up reference".to_string()]
    }
}

/// The sharded half's output check; empty when it holds.
fn check_sharded(
    sharded: &Result<PipelineReport, String>,
    reference: &PipelineReport,
) -> Vec<String> {
    match sharded {
        Ok(r) if same_report(r, reference) => Vec::new(),
        Ok(_) => vec![format!(
            "{SHARDS}-shard report differs from the serial report"
        )],
        Err(err) => vec![format!("engine failed: {err}")],
    }
}

/// The sharded half runs in one rep of this many, starting with the
/// first. Its rate is reported as information (two threads on a
/// two-thread shared host measure the neighbours as much as the engine:
/// see the README), so it needs fewer samples than the bounded serial
/// rate, and every rep it sits out is three more serial samples.
const SHARDED_EVERY: u32 = 4;

pub fn run(ctx: &Ctx) -> EndToEnd {
    let (prep, setup_s) = ctx.setup(|| prepare(ctx.seed));
    let f = &prep.field;
    let mut e = EndToEnd {
        readings_per_rep: f.records.len() as u64,
        trace_windows: f.windows,
        setup_s,
        ..EndToEnd::default()
    };
    let mut sharded_s = Vec::new();
    ctx.reps(|rep| {
        let r = serial_rep(f);
        e.rep_wall_s.push(r.seconds);
        let mut why = check_serial(&r.pipeline, &prep.reference);
        if rep == 0 {
            // Exact for a given trace, so taken once. The analyzer keeps
            // nothing on disk; what it would have to write to be
            // restartable is its encoded checkpoint.
            e.durable_bytes = encode_pipeline(&r.pipeline.snapshot()).len() as u64;
            e.detect_delay_windows = Some(detect_delay(f, &r.pipeline, &r.outcomes));
        }
        drop(r);
        if rep % SHARDED_EVERY == 0 {
            let (seconds, report) = sharded_rep(f);
            sharded_s.push(seconds);
            why.extend(check_sharded(&report, &prep.reference));
        }
        e.tally.add_rep(e.readings_per_rep, 0, why.is_empty());
        e.failures
            .extend(why.into_iter().map(|w| format!("rep {rep}: {w}")));
    });
    let n = e.readings_per_rep as f64;
    e.info.push(Metric::new(
        "sharded_readings_per_s",
        "readings/s",
        summarize(&sharded_s).map(|s| n / s),
    ));
    e
}

/// The serial pipeline driven reading by reading under `parent`, so a
/// span can close around every window and every chunk of plain pushes.
/// The harness knows the window length, so it knows which
/// `push_values` call will close a window before making it.
pub fn traced_pipeline(
    field: &Field,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    rep: u32,
) -> Pipeline {
    let window = field.window_seconds();
    let serial = tracer.open("core.pipeline", parent, rep);
    let mut p = Pipeline::new(PipelineConfig::default(), field.sample_period);
    let mut current = None;
    let mut chunk_start = tracer.now();
    let mut chunk_calls = 0u64;
    for (time, sensor, reading) in field.trace.delivered() {
        let index = time / window;
        if current.is_some_and(|c| c != index) {
            let now = tracer.now();
            tracer.push(
                "core.pipeline_reading",
                Some(serial),
                rep,
                chunk_start,
                now,
                chunk_calls,
            );
            let closed = tracer.time("core.pipeline_window", Some(serial), rep, 1, || {
                p.push_values(time, sensor, reading.values())
            });
            for o in closed {
                p.recycle_outcome(o);
            }
            chunk_start = tracer.now();
            chunk_calls = 0;
        } else {
            black_box(p.push_values(time, sensor, reading.values()));
            chunk_calls += 1;
        }
        current = Some(index);
    }
    let now = tracer.now();
    tracer.push(
        "core.pipeline_reading",
        Some(serial),
        rep,
        chunk_start,
        now,
        chunk_calls,
    );
    tracer.time("core.pipeline_window", Some(serial), rep, 1, || {
        black_box(p.finalize());
    });
    tracer.time("core.classify_all", Some(serial), rep, 1, || {
        black_box(p.classify_all());
    });
    tracer.close(serial, field.records.len() as u64);
    p
}

/// One traced rep: the serial half through [`traced_pipeline`], the
/// sharded half as the one call it is.
pub fn traced_rep(prep: &Prepared, tracer: &mut Tracer, rep: u32) -> Vec<String> {
    let f = &prep.field;
    let root = tracer.open("rep", None, rep);
    let p = traced_pipeline(f, tracer, Some(root), rep);
    let report = tracer.time("engine.s2", Some(root), rep, f.windows, || {
        Engine::new(PipelineConfig::default(), f.sample_period, SHARDS)
            .process_trace(&f.trace)
            .map(|r| r.report())
            .map_err(|e| e.to_string())
    });
    tracer.close(root, 1);
    let mut why = check_serial(&p, &prep.reference);
    why.extend(check_sharded(&report, &prep.reference));
    why.into_iter()
        .map(|w| format!("rep {rep}: traced: {w}"))
        .collect()
}
