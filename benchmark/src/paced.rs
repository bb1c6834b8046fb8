//! `ingest-paced`: the benchmark's own open-loop v2 client. One TCP
//! connection built from the public frame codec only; a sender thread
//! emits 32-reading `DataBatch` frames on a fixed schedule and a reader
//! thread timestamps every `AckUpTo`. A batch's latency runs from the
//! instant its last reading was *due*, not from when it was sent, so a
//! stall charges every batch that queued behind it.

use crate::host::{dir_bytes, discard};
use crate::ingest::{self, gateway_config, Prepared, Retention, FSYNC};
use crate::inputs::{batches, Batch};
use crate::report::{EndToEnd, Metric};
use crate::span::Tracer;
use crate::stats::{highest_percentile, percentile};
use crate::Ctx;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    Collector, FrameBuffer, GatewayConfig, GatewayReport, Message, Server, ServerConfig,
    PROTOCOL_VERSION,
};
use sentinet_sim::{RawRecord, SensorId};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered load, readings per second: a little over half of what this
/// client shape (32-reading frames, credit window 32) saturates at on
/// the reference host (≈ 182 k/s), so the queue is short unless
/// something stalls.
pub const RATE: f64 = 100_000.0;
/// Readings per frame. Small, so a frame waits little for its own
/// tail and the latency seen is the system's.
pub const BATCH: usize = 32;
/// A rep whose generator ran later than this at p99 measured the
/// generator, not the system, and is thrown out.
pub const MAX_LATE_P99_MS: f64 = 5.0;
/// Give up on acks that have not come this long after the last one.
const ACK_PATIENCE: Duration = Duration::from_secs(10);
/// `acked` value of a batch the server refused.
const NACKED: u64 = u64::MAX;

/// The open-loop schedule and the generator's own lateness.
///
/// A batch is due when its last reading is: `sealed_at ÷ rate` after
/// the stream starts. Being late for it can be the system's doing (the
/// credit window or a full socket held the sender on the batch before)
/// or the generator's (it overslept). Only the second kind is charged
/// to the generator, so the due times never move: whatever holds the
/// sender shows up in latency, which always counts from the due time.
#[derive(Debug)]
pub struct Pacer {
    rate: f64,
    /// When the previous batch finally left (credit wait and write
    /// included): before this instant the sender was not free.
    free_at: u64,
}

impl Pacer {
    pub fn new(rate: f64) -> Self {
        Self { rate, free_at: 0 }
    }

    /// Nanoseconds after stream start at which a batch sealed by record
    /// number `sealed_at` (1-based) is due.
    pub fn due(&self, sealed_at: usize) -> u64 {
        (sealed_at as f64 / self.rate * 1e9) as u64
    }

    /// The sender got to a batch at `ready`; returns the generator's
    /// own lateness: time lost after the batch was due *and* the
    /// sender was free.
    pub fn reached(&self, due: u64, ready: u64) -> u64 {
        ready.saturating_sub(due.max(self.free_at))
    }

    /// The batch left at `sent`.
    pub fn sent(&mut self, sent: u64) {
        self.free_at = sent;
    }
}

/// Due→ack latency; an ack can never precede its due time by more
/// than clock jitter.
pub fn latency_ns(due: u64, acked: u64) -> u64 {
    acked.saturating_sub(due)
}

/// The frames of one rep, encoded before the clock starts so the
/// generator's only job on the clock is to keep the schedule.
pub struct Plan {
    batches: Vec<Batch>,
    frames: Vec<Vec<u8>>,
    /// Per sensor, its batches as `(last seq, batch index)` in order.
    by_sensor: BTreeMap<SensorId, Vec<(u64, usize)>>,
}

impl Plan {
    pub fn new(records: &[RawRecord]) -> Self {
        let batches = batches(records, BATCH);
        let frames = batches
            .iter()
            .map(|b| {
                encode_frame(&Message::DataBatch {
                    sensor: b.sensor,
                    first_seq: b.first_seq,
                    readings: b.readings.clone(),
                })
            })
            .collect();
        let mut by_sensor: BTreeMap<SensorId, Vec<(u64, usize)>> = BTreeMap::new();
        for (i, b) in batches.iter().enumerate() {
            by_sensor
                .entry(b.sensor)
                .or_default()
                .push((b.first_seq + b.readings.len() as u64 - 1, i));
        }
        Self {
            batches,
            frames,
            by_sensor,
        }
    }

    pub fn len(&self) -> usize {
        self.batches.len()
    }
}

/// Per-batch clock offsets of one rep, nanoseconds since stream start.
#[derive(Debug, Default)]
pub struct BatchTimes {
    pub due: Vec<u64>,
    pub sent: Vec<u64>,
    /// 0: never acknowledged; [`NACKED`]: refused.
    pub acked: Vec<u64>,
    pub late: Vec<u64>,
}

/// State the sender and the reader share.
struct Shared {
    inflight: Mutex<usize>,
    room: Condvar,
    acked: Vec<AtomicU64>,
    nacks: AtomicU64,
    /// The reader stopped (done, or gave up): the sender must not wait
    /// for credits that will never come.
    reader_gone: AtomicBool,
}

fn read_until<T>(
    stream: &mut TcpStream,
    fb: &mut FrameBuffer,
    patience: Duration,
    mut on: impl FnMut(Message) -> Option<T>,
) -> Option<T> {
    let mut buf = [0u8; 16 * 1024];
    let mut last_progress = Instant::now();
    loop {
        while let Ok(Some(msg)) = fb.next_message() {
            last_progress = Instant::now();
            if let Some(done) = on(msg) {
                return Some(done);
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => fb.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > patience {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// The reader thread: stamps each batch an `AckUpTo` covers and hands
/// its credit back.
fn reader(
    mut stream: TcpStream,
    mut fb: FrameBuffer,
    plan: &Plan,
    shared: &Shared,
    origin: Instant,
) -> (TcpStream, FrameBuffer) {
    let mut cursor: BTreeMap<SensorId, usize> = BTreeMap::new();
    let mut settled = 0usize;
    let total = plan.len();
    let settle = |idx: usize, stamp: u64| {
        shared.acked[idx].store(stamp, Ordering::Release);
        *shared.inflight.lock().expect("credit lock") -= 1;
        shared.room.notify_one();
    };
    read_until(&mut stream, &mut fb, ACK_PATIENCE, |msg| {
        let now = origin.elapsed().as_nanos() as u64;
        match msg {
            Message::AckUpTo { sensor, seq } => {
                let list = plan.by_sensor.get(&sensor).map_or(&[][..], Vec::as_slice);
                let at = cursor.entry(sensor).or_insert(0);
                while let Some(&(last, idx)) = list.get(*at) {
                    if last > seq {
                        break;
                    }
                    settle(idx, now.max(1));
                    settled += 1;
                    *at += 1;
                }
            }
            Message::Nack { sensor, seq } => {
                shared.nacks.fetch_add(1, Ordering::Relaxed);
                let list = plan.by_sensor.get(&sensor).map_or(&[][..], Vec::as_slice);
                let at = cursor.entry(sensor).or_insert(0);
                if let Some(&(last, idx)) = list.get(*at) {
                    if seq <= last {
                        settle(idx, NACKED);
                        settled += 1;
                        *at += 1;
                    }
                }
            }
            _ => {}
        }
        (settled == total).then_some(())
    });
    shared.reader_gone.store(true, Ordering::Release);
    shared.room.notify_all();
    (stream, fb)
}

/// The whole client: handshake, paced send, ack collection, `Fin`.
/// Returns the per-batch times; `origin` is the stream start the
/// offsets count from.
fn client(addr: &str, plan: &Plan, rate: f64) -> (BatchTimes, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    stream
        .write_all(&encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        }))
        .expect("send hello");
    let mut fb = FrameBuffer::new();
    let credits = read_until(&mut stream, &mut fb, ACK_PATIENCE, |msg| match msg {
        Message::HelloAck { credits, .. } => Some(credits as usize),
        _ => None,
    })
    .expect("server granted a credit window");

    let shared = Shared {
        inflight: Mutex::new(0),
        room: Condvar::new(),
        acked: (0..plan.len()).map(|_| AtomicU64::new(0)).collect(),
        nacks: AtomicU64::new(0),
        reader_gone: AtomicBool::new(false),
    };
    let mut times = BatchTimes::default();
    let mut pacer = Pacer::new(rate);
    let read_half = stream.try_clone().expect("clone read half");
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    let (mut stream, mut fb) = std::thread::scope(|scope| {
        let shared = &shared;
        let reading = scope.spawn(move || reader(read_half, fb, plan, shared, origin));
        for (batch, frame) in plan.batches.iter().zip(&plan.frames) {
            let due = pacer.due(batch.sealed_at);
            let mut ready = now();
            if ready < due {
                std::thread::sleep(Duration::from_nanos(due - ready));
                ready = now();
            }
            times.due.push(due);
            times.late.push(pacer.reached(due, ready));
            {
                let mut inflight = shared.inflight.lock().expect("credit lock");
                while *inflight >= credits && !shared.reader_gone.load(Ordering::Acquire) {
                    inflight = shared
                        .room
                        .wait_timeout(inflight, Duration::from_millis(100))
                        .expect("credit lock")
                        .0;
                }
                *inflight += 1;
            }
            if shared.reader_gone.load(Ordering::Acquire) || stream.write_all(frame).is_err() {
                break;
            }
            let sent = now();
            pacer.sent(sent);
            times.sent.push(sent);
        }
        reading.join().expect("reader thread")
    });
    times.acked = shared
        .acked
        .iter()
        .map(|a| a.load(Ordering::Acquire))
        .collect();
    let _ = stream.write_all(&encode_frame(&Message::Fin));
    read_until(&mut stream, &mut fb, ACK_PATIENCE, |msg| {
        matches!(msg, Message::FinAck).then_some(())
    });
    (times, shared.nacks.load(Ordering::Relaxed))
}

/// What one paced rep produced.
pub struct PacedRun {
    pub wall_s: f64,
    pub report: GatewayReport,
    pub times: BatchTimes,
    pub nacks: u64,
    /// Readings in batches that were never acknowledged or were
    /// refused.
    pub unacked: u64,
}

impl PacedRun {
    /// Due→ack latency of every acknowledged batch, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.times
            .due
            .iter()
            .zip(&self.times.acked)
            .filter(|(_, &a)| a != 0 && a != NACKED)
            .map(|(&d, &a)| latency_ns(d, a) as f64 / 1e6)
            .collect()
    }

    pub fn late_p99_ms(&self) -> f64 {
        let late: Vec<f64> = self.times.late.iter().map(|&l| l as f64 / 1e6).collect();
        if late.is_empty() {
            return f64::INFINITY;
        }
        percentile(&late, 99.0)
    }
}

/// One open-loop run at `rate`: clock from just before the connect to
/// the return of `finish()`.
pub fn serve_paced(config: GatewayConfig, plan: &Plan, rate: f64) -> PacedRun {
    let (mut collector, _) = Collector::open(config).expect("open collector");
    let server = Server::start(ServerConfig {
        credit_window: ingest::WINDOW as u32,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.addr().to_string();
    let start = Instant::now();
    let (times, nacks) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| client(&addr, plan, rate));
        server.run(&mut collector).expect("serve loopback stream");
        generator.join().expect("generator thread")
    });
    let report = collector.finish().expect("finish collector");
    let wall_s = start.elapsed().as_secs_f64();
    let unacked = plan
        .batches
        .iter()
        .enumerate()
        .filter(|(i, _)| matches!(times.acked.get(*i), None | Some(&0) | Some(&NACKED)))
        .map(|(_, b)| b.readings.len() as u64)
        .sum();
    PacedRun {
        wall_s,
        report,
        times,
        nacks,
        unacked,
    }
}

/// The output checks of one paced rep; empty when all hold.
fn check(run: &PacedRun, sent: usize, prep: &Prepared) -> Vec<String> {
    let mut why = ingest::check_report(&run.report, sent, &prep.reference);
    if run.unacked > 0 || run.nacks > 0 {
        why.push(format!(
            "{} reading(s) unacknowledged, {} NACK(s)",
            run.unacked, run.nacks
        ));
    }
    why
}

/// Whether the generator kept its schedule well enough for the rep's
/// latencies to be the system's. A rep that fails this is invalid, not
/// slow: its latencies are dropped, its outputs are still checked.
pub fn generator_kept_up(run: &PacedRun) -> bool {
    run.late_p99_ms() <= MAX_LATE_P99_MS
}

/// Too many invalid reps means the generator cannot hold this rate on
/// this host at all, and the run says so instead of reporting.
pub fn invalid_reps_failure(invalid: usize, reps: usize) -> Option<String> {
    (invalid * 2 > reps).then(|| {
        format!(
            "generator lagged more than {MAX_LATE_P99_MS} ms at p99 in {invalid} of {reps} reps: the run measured the generator"
        )
    })
}

fn failed_readings(run: &PacedRun) -> u64 {
    run.unacked + ingest::refused_readings(&run.report)
}

pub fn run(ctx: &Ctx) -> EndToEnd {
    let (prep, setup_s) = ctx.setup(|| ingest::prepare(ctx, ctx.seed));
    let f = &prep.field;
    let sent = f.records.len();
    let plan = Plan::new(&f.records);
    let mut e = EndToEnd {
        readings_per_rep: sent as u64,
        trace_windows: f.windows,
        setup_s,
        ..EndToEnd::default()
    };
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut invalid = 0;
    let mut recovery = Vec::new();
    let reps = ctx.reps(|rep| {
        let dir = ctx.scratch.fresh("paced");
        let config = gateway_config(&dir, f.sample_period, FSYNC, Retention::Off);
        let run = serve_paced(config.clone(), &plan, RATE);
        e.rep_wall_s.push(run.wall_s);
        e.durable_bytes = dir_bytes(&dir);
        let (seconds, _, again) = ingest::reopen(config);
        recovery.push(seconds);
        let mut why = check(&run, sent, &prep);
        if again.pipeline != run.report.pipeline {
            why.push("reopened collector reports differently".into());
        }
        let ms = run.latencies_ms();
        if !generator_kept_up(&run) {
            eprintln!(
                "ingest-paced: rep {rep} invalid: generator lagged {:.3} ms at p99",
                run.late_p99_ms()
            );
            invalid += 1;
        } else if !ms.is_empty() {
            p50.push(percentile(&ms, 50.0));
            p99.push(percentile(&ms, 99.0));
            latencies.extend(ms);
        }
        late.push(run.late_p99_ms());
        e.tally
            .add_rep(sent as u64, failed_readings(&run), why.is_empty());
        e.failures
            .extend(why.into_iter().map(|w| format!("rep {rep}: {w}")));
        discard(&dir);
    });
    if !latencies.is_empty() {
        // Each rep's p50 and p99, median over reps: one rep that hit a
        // stall moves a pooled p99 a long way, the median of per-rep
        // tails does not. Information, not end-to-end metrics: on this
        // host they cannot be held to a bound (see the README).
        e.info.push(Metric::samples("ack_p50_ms", "ms", &p50));
        e.info.push(Metric::samples("ack_p99_ms", "ms", &p99));
        // The tail beyond p99: the highest percentile the pooled
        // sample count can resolve, and the worst batch.
        if let Some(top) = highest_percentile(latencies.len()).filter(|&t| t > 99.0) {
            e.info.push(Metric::exact(
                format!("ack_p{top}_ms"),
                "ms",
                percentile(&latencies, top),
            ));
        }
        e.info.push(Metric::exact(
            "ack_max_ms",
            "ms",
            percentile(&latencies, 100.0),
        ));
        e.info.push(Metric::exact(
            "ack.batches",
            "count",
            latencies.len() as f64,
        ));
    } else {
        e.failures
            .push("no rep produced a valid latency sample".into());
    }
    e.failures
        .extend(invalid_reps_failure(invalid, reps as usize));
    e.recovery_s = Some(recovery);
    e.info.push(Metric::samples("gen.late_p99_ms", "ms", &late));
    e.info
        .push(Metric::exact("gen.invalid_reps", "count", invalid as f64));
    e.info.push(Metric::exact("gen.rate", "readings/s", RATE));
    e
}

/// One traced paced rep: one span per batch, from due to ack, with the
/// time the frame actually left as a child — so the span's self time is
/// what the system, not the schedule, added.
pub fn traced_rep(
    ctx: &Ctx,
    prep: &Prepared,
    plan: &Plan,
    tracer: &mut Tracer,
    rep: u32,
) -> (PacedRun, Vec<String>) {
    let f = &prep.field;
    let dir = ctx.scratch.fresh("paced-traced");
    let config = gateway_config(&dir, f.sample_period, FSYNC, Retention::Off);
    let root = tracer.open("rep", None, rep);
    let base = tracer.now();
    let run = serve_paced(config, plan, RATE);
    tracer.close(root, 1);
    // The client's offsets count from its own stream start, a little
    // after `base`; the shift is irrelevant to durations.
    for (i, (&due, &acked)) in run.times.due.iter().zip(&run.times.acked).enumerate() {
        if acked == 0 || acked == NACKED {
            continue;
        }
        let batch = tracer.push(
            "paced.batch",
            Some(root),
            rep,
            base + due,
            base + acked,
            plan.batches[i].readings.len() as u64,
        );
        if let Some(&sent) = run.times.sent.get(i) {
            tracer.push("paced.queued", Some(batch), rep, base + due, base + sent, 1);
        }
    }
    let why = check(&run, f.records.len(), prep)
        .into_iter()
        .map(|w| format!("rep {rep}: {w}"))
        .collect();
    discard(&dir);
    (run, why)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_follow_the_record_schedule() {
        let p = Pacer::new(1_000.0);
        assert_eq!(p.due(1), MS);
        assert_eq!(p.due(32), 32 * MS);
        let p = Pacer::new(200_000.0);
        assert_eq!(p.due(32), 160_000);
    }

    #[test]
    fn oversleeping_is_the_generators_lateness() {
        let mut p = Pacer::new(1_000.0);
        let due = p.due(1);
        assert_eq!(p.reached(due, due), 0);
        assert_eq!(p.reached(due, due + 300_000), 300_000);
        p.sent(due + 310_000);
        // Next batch due later than the sender was freed: only the
        // time past its own due counts.
        let due = p.due(2);
        assert_eq!(p.reached(due, due + 50_000), 50_000);
    }

    #[test]
    fn a_blocked_credit_window_is_charged_to_latency_not_to_the_generator() {
        let mut p = Pacer::new(1_000.0); // one batch per ms
                                         // Batch 1: reached on time, then held 4 ms by the credit
                                         // window before it could leave.
        let due1 = p.due(1);
        assert_eq!(p.reached(due1, due1), 0);
        p.sent(5 * MS);
        // Batches 2 and 3 came due while the sender was held. It
        // reaches them the moment it is free: no generator lateness…
        let due2 = p.due(2);
        assert_eq!(due2, 2 * MS, "a stall never moves a due time");
        assert_eq!(p.reached(due2, 5 * MS), 0);
        p.sent(5 * MS + 100_000);
        let due3 = p.due(3);
        assert_eq!(p.reached(due3, 5 * MS + 120_000), 20_000);
        p.sent(5 * MS + 200_000);
        // …but their latency still counts from when they were due, so
        // the stall is paid by every batch queued behind it.
        assert_eq!(latency_ns(due2, 6 * MS), 4 * MS);
        assert_eq!(latency_ns(due3, 6 * MS), 3 * MS);
        // Once the backlog clears the schedule is the original one.
        let due10 = p.due(10);
        assert_eq!(p.reached(due10, due10 + 7), 7);
    }

    #[test]
    fn a_run_fails_only_when_most_reps_measured_the_generator() {
        assert_eq!(invalid_reps_failure(0, 7), None);
        assert_eq!(invalid_reps_failure(3, 7), None);
        assert!(invalid_reps_failure(4, 7).is_some());
        assert!(invalid_reps_failure(1, 1).is_some());
    }

    #[test]
    fn an_ack_stamped_before_its_due_time_is_zero_not_negative() {
        assert_eq!(latency_ns(10, 3), 0);
    }
}
