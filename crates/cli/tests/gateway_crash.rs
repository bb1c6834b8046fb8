//! Whole-process crash-recovery tests: run the real `sentinet serve`
//! daemon, kill it without ceremony mid-stream — both via the WAL's
//! chaos abort hook (`--crash-after`) and via a raw SIGKILL — restart
//! it on the same WAL directory, re-deliver the stream through the
//! retrying uplink, and require the final report byte-identical to an
//! uninterrupted run. `replay-wal` over the survivor's log must print
//! the same report again.
//!
//! Two environment knobs let CI sweep the same assertions across the
//! durability and protocol matrix without touching their strength:
//! `SENTINET_TEST_FSYNC` overrides the daemon's `--fsync` policy
//! (default `never`), and `SENTINET_TEST_PROTOCOL=v2` drives the
//! stream through the pipelined `DataBatch` uplink instead of
//! stop-and-wait.

use sentinet_gateway::{PipelinedConfig, PipelinedUplink, SensorUplink, UplinkConfig, UplinkError};
use sentinet_sim::SensorId;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Batch size for the `v2` sweep — small enough that `--crash-after`
/// and the SIGKILL both land mid-stream with batches in flight.
const PIPE_BATCH: usize = 8;

fn fsync_policy() -> String {
    std::env::var("SENTINET_TEST_FSYNC").unwrap_or_else(|_| "never".into())
}

fn pipelined() -> bool {
    std::env::var("SENTINET_TEST_PROTOCOL").as_deref() == Ok("v2")
}

/// The reorder window is co-tuned with the protocol (DESIGN.md §14.4):
/// pipelined batches arrive in per-sensor bursts spanning
/// `batch × period` stream-seconds, so the watermark delay must cover
/// at least two spans or cross-sensor same-era readings drop as late.
fn watermark() -> String {
    if pipelined() {
        (2 * PIPE_BATCH as u64 * 300).to_string()
    } else {
        "600".into()
    }
}

/// Either wire protocol behind the one interface the tests use; the
/// assertions are identical for both.
enum TestUplink {
    V1(SensorUplink),
    V2(PipelinedUplink),
}

impl TestUplink {
    fn send_at(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: u64,
        values: &[f64],
    ) -> Result<(), UplinkError> {
        match self {
            TestUplink::V1(up) => up.send_at(sensor, seq, time, values).map(|_| ()),
            TestUplink::V2(up) => {
                // The pipelined client numbers the stream itself; the
                // test stream is gapless per sensor, so they agree.
                let got = up.send(sensor, time, values)?;
                assert_eq!(got, seq, "pipelined uplink seq drifted from the stream");
                Ok(())
            }
        }
    }

    fn finish(self) -> Result<(), UplinkError> {
        match self {
            TestUplink::V1(up) => up.finish(),
            TestUplink::V2(up) => up.finish().map(|_| ()),
        }
    }
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-gateway-crash-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic test stream: two sensors, 120 sampling ticks.
fn stream() -> Vec<(SensorId, u64, u64, Vec<f64>)> {
    let mut out = Vec::new();
    for i in 0..120u64 {
        let t = 300 * (i + 1);
        for s in 0..2u16 {
            let v = 20.0 + (i % 7) as f64 + f64::from(s);
            out.push((SensorId(s), i, t, vec![v, v + 30.0]));
        }
    }
    out
}

/// Spawns `sentinet serve` and reads the `listening on ADDR` line.
fn spawn_serve(
    wal_dir: &std::path::Path,
    extra: &[&str],
) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args([
            "serve",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--watermark",
            &watermark(),
            "--checkpoint-every",
            "64",
            "--fsync",
            &fsync_policy(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_string();
    (child, stdout, addr)
}

/// A snappy uplink: a dead server should fail fast, not after the
/// production backoff schedule.
fn uplink(addr: String) -> TestUplink {
    let mut config = UplinkConfig::new(addr);
    config.ack_timeout = std::time::Duration::from_millis(300);
    config.max_attempts = 5;
    config.backoff_base = std::time::Duration::from_millis(10);
    if pipelined() {
        let mut pipe = PipelinedConfig::new("");
        pipe.transport = config;
        pipe.batch_size = PIPE_BATCH;
        pipe.max_inflight = 4;
        TestUplink::V2(PipelinedUplink::new(pipe))
    } else {
        TestUplink::V1(SensorUplink::new(config))
    }
}

/// Sends the whole stream (stopping at the first exhausted retry) and
/// returns how many records the uplink accepted (durably acked under
/// stop-and-wait; accepted-or-in-flight under the pipelined client).
fn send_all(uplink: &mut TestUplink, records: &[(SensorId, u64, u64, Vec<f64>)]) -> usize {
    for (i, (s, seq, t, v)) in records.iter().enumerate() {
        if uplink.send_at(*s, *seq, *t, v).is_err() {
            return i;
        }
    }
    records.len()
}

/// Runs serve over the full stream uninterrupted and returns its
/// post-`listening` stdout (the report).
fn uninterrupted_run(name: &str) -> String {
    let dir = tmpdir(name);
    let (mut child, mut stdout, addr) = spawn_serve(&dir, &[]);
    let mut up = uplink(addr);
    assert_eq!(send_all(&mut up, &stream()), stream().len());
    up.finish().expect("fin/finack");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read report");
    let status = child.wait().expect("wait serve");
    assert!(status.success(), "clean serve run must exit 0: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
    rest
}

/// Restarts serve over a crashed WAL dir, re-delivers the full stream
/// from sequence zero (dedup absorbs everything already durable), and
/// returns the report stdout.
fn resume_run(dir: &std::path::Path) -> String {
    let (mut child, mut stdout, addr) = spawn_serve(dir, &[]);
    let mut up = uplink(addr);
    assert_eq!(send_all(&mut up, &stream()), stream().len());
    up.finish().expect("fin/finack");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read report");
    let status = child.wait().expect("wait serve");
    assert!(status.success(), "resumed serve must exit 0: {status:?}");
    rest
}

fn replay_wal(dir: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args([
            "replay-wal",
            "--wal-dir",
            dir.to_str().unwrap(),
            "--watermark",
            &watermark(),
        ])
        .output()
        .expect("spawn replay-wal");
    assert!(
        out.status.success(),
        "replay-wal failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

#[test]
fn crash_after_abort_resumes_bit_identically() {
    let baseline = uninterrupted_run("abort-base");
    assert!(baseline.contains("recovery plan"), "{baseline}");

    // The daemon aborts itself (as if kill -9) during the 150th WAL
    // append — mid-stream, between checkpoints.
    let dir = tmpdir("abort-crash");
    let (mut child, _stdout, addr) = spawn_serve(&dir, &["--crash-after", "150"]);
    let mut up = uplink(addr);
    let sent = send_all(&mut up, &stream());
    assert!(sent < stream().len(), "daemon should have died mid-stream");
    let status = child.wait().expect("wait crashed serve");
    assert!(!status.success(), "abort must not look like a clean exit");

    let resumed = resume_run(&dir);
    assert_eq!(
        resumed, baseline,
        "resumed report differs from uninterrupted run"
    );

    // The WAL alone reproduces the same report.
    let replayed = replay_wal(&dir);
    assert_eq!(replayed, baseline, "replay-wal report differs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_mid_stream_resumes_bit_identically() {
    let baseline = uninterrupted_run("kill-base");

    let dir = tmpdir("kill-crash");
    let (mut child, _stdout, addr) = spawn_serve(&dir, &[]);
    let mut up = uplink(addr);
    // 130 records go out (durably acked under stop-and-wait; some
    // possibly still buffered under v2); then the process is SIGKILLed.
    let prefix = &stream()[..130];
    assert_eq!(send_all(&mut up, prefix), prefix.len());
    child.kill().expect("SIGKILL serve");
    let status = child.wait().expect("wait killed serve");
    assert!(!status.success());

    let resumed = resume_run(&dir);
    assert_eq!(
        resumed, baseline,
        "resumed report differs from uninterrupted run"
    );
    let replayed = replay_wal(&dir);
    assert_eq!(replayed, baseline, "replay-wal report differs");
    std::fs::remove_dir_all(&dir).ok();
}
