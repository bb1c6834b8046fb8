//! Whole-process federation drills: `sentinet federate` spawns real
//! `sentinet serve` children, the `--kill` drill SIGKILLs one of them
//! mid-stream, and the controller must detect the death on the stream
//! clock, fail the partition over to a standby (checkpoint snapshot +
//! WAL-tail replay + routed-log redelivery), and print a fleet
//! diagnosis byte-identical to an uninterrupted baseline. With no
//! standby the partition must orphan fail-stop: visible, NACK-counted,
//! exit status 3.
//!
//! Every link is a pipelined v2 uplink sending one reading a frame, so
//! the children admit readings in routed order: a run at `federate`'s
//! own defaults admits every reading of the trace and prints the
//! recorded fleet diagnosis. `SENTINET_TEST_FSYNC` picks the
//! children's fsync policy, as in the gateway crash tests.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fsync_policy() -> String {
    std::env::var("SENTINET_TEST_FSYNC").unwrap_or_else(|_| "never".into())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sentinet-federation-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sentinet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(args)
        .output()
        .expect("run sentinet")
}

/// Simulates the shared drill trace: 6 sensors, 2 clean days.
fn simulate_trace(dir: &Path) -> String {
    std::fs::create_dir_all(dir).expect("trace dir");
    let trace = dir
        .join("trace.csv")
        .to_str()
        .expect("utf8 path")
        .to_string();
    let out = sentinet(&[
        "simulate",
        &trace,
        "--days",
        "2",
        "--sensors",
        "6",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    trace
}

/// Runs `federate` over three partitions with the drill-tuned uplink
/// (fast timeouts, deterministic backoff).
fn federate(trace: &str, wal_root: &Path, extra: &[&str]) -> Output {
    let wal_root = wal_root.to_str().expect("utf8 path");
    let mut args = vec![
        "federate",
        trace,
        "--wal-root",
        wal_root,
        "--partitions",
        "3",
        "--checkpoint-every",
        "16",
        "--ack-timeout-ms",
        "150",
        "--max-attempts",
        "3",
        "--backoff-base-ms",
        "5",
        "--backoff-cap-ms",
        "20",
        "--jitter-pct",
        "0",
    ];
    let fsync = fsync_policy();
    args.extend(["--fsync", &fsync]);
    args.extend(extra);
    sentinet(&args)
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

/// `federate`'s stdout at its own defaults over three partitions,
/// recorded from the stop-and-wait links the fleet used to speak.
const DEFAULT_STDOUT: &str = include_str!("fixtures/federate_default.stdout");

#[test]
fn the_default_run_admits_every_reading_and_prints_the_recorded_diagnosis() {
    let root = tmpdir("defaults");
    let trace = simulate_trace(&root);
    let wal_root = root.join("fleet");
    let out = sentinet(&[
        "federate",
        &trace,
        "--wal-root",
        wal_root.to_str().expect("utf8 path"),
        "--partitions",
        "3",
    ]);
    let stderr = stderr_of(&out);
    assert!(out.status.success(), "default run failed: {stderr}");
    // No reorder window to tune: nothing arrives behind the watermark.
    assert!(
        stderr.contains("fleet counters: 2853 accepted, 0 duplicate(s), 0 late,"),
        "the default run lost readings:\n{stderr}"
    );
    assert_eq!(stdout_of(&out), DEFAULT_STDOUT);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sigkill_failover_reproduces_the_baseline_byte_for_byte() {
    let root = tmpdir("kill");
    let trace = simulate_trace(&root);

    let base = federate(&trace, &root.join("base"), &[]);
    assert!(
        base.status.success(),
        "baseline run failed: {}",
        stderr_of(&base)
    );

    // Partition 1 owns sensors 2..4; its child is SIGKILLed after 50
    // readings (~tick 25 of 576) — squarely mid-stream.
    let drill = federate(&trace, &root.join("drill"), &["--kill", "1:50"]);
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "kill + failover must reproduce the uninterrupted fleet diagnosis byte for byte\n\
         --- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    assert!(
        events.contains("partition 1 suspect at"),
        "missing suspect event:\n{events}"
    );
    assert!(
        events.contains("partition 1 failed over to epoch 2"),
        "missing failover event:\n{events}"
    );

    // Detection honours the silence deadline on the stream clock:
    // death is declared only after the deadline elapsed, and not
    // unboundedly later. The ack watermark lags the kill by at most
    // one flush span (flush_every 32 readings over 2 sensors at 300 s
    // period = 4800 stream-seconds), so that span plus one sampling
    // tick bounds the declaration.
    let dead = events
        .lines()
        .find(|l| l.contains("partition 1 dead at"))
        .unwrap_or_else(|| panic!("missing dead event:\n{events}"));
    let num_after = |text: &str, key: &str| -> u64 {
        let rest = &text[text.find(key).expect(key) + key.len()..];
        rest.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("number")
    };
    let at = num_after(dead, "dead at t=");
    let last = num_after(dead, "last acked t=");
    let deadline = num_after(dead, "silence deadline ");
    assert!(
        at - last > deadline,
        "death declared before the deadline elapsed: {dead}"
    );
    let ack_lag = 4800;
    assert!(
        at - last <= deadline + ack_lag + 300,
        "death declared late: {dead}"
    );
}

#[test]
fn comma_separated_kill_list_fails_over_every_listed_partition() {
    let root = tmpdir("kill-list");
    let trace = simulate_trace(&root);

    let base = federate(&trace, &root.join("base"), &["--standbys", "2"]);
    assert!(
        base.status.success(),
        "baseline run failed: {}",
        stderr_of(&base)
    );

    // Two drills in one run: partitions 0 and 2 lose their owners at
    // different stream coordinates, and both must fail over.
    let drill = federate(
        &trace,
        &root.join("drill"),
        &["--standbys", "2", "--kill", "0:40,2:90"],
    );
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "a double kill + failover must reproduce the uninterrupted fleet \
         diagnosis byte for byte\n--- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    for p in [0, 2] {
        assert!(
            events.contains(&format!("partition {p} failed over to epoch 2")),
            "missing failover for partition {p}:\n{events}"
        );
    }
    assert!(
        !events.contains("partition 1 suspect"),
        "the unlisted partition must stay healthy:\n{events}"
    );
}

#[test]
fn no_standby_orphan_is_fail_stop_and_visible() {
    let root = tmpdir("orphan");
    let trace = simulate_trace(&root);

    let out = federate(
        &trace,
        &root.join("fleet"),
        &[
            "--standbys",
            "0",
            "--kill",
            "1:50",
            "--handoff-attempts",
            "2",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "an orphaned fleet must exit 3\nstdout:\n{}\nstderr:\n{}",
        stdout_of(&out),
        stderr_of(&out)
    );

    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("partition 1 [sensors 2..4]: orphaned"),
        "the orphan must be visible in the fleet diagnosis:\n{stdout}"
    );
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("partition 1 orphaned at"),
        "missing orphaned event:\n{stderr}"
    );
    let nacks = stderr
        .lines()
        .find(|l| l.starts_with("partition 1:"))
        .unwrap_or_else(|| panic!("missing partition 1 accounting:\n{stderr}"));
    assert!(
        !nacks.contains(" 0 orphan-nack(s)"),
        "unacked readings must be NACK-counted, not dropped: {nacks}"
    );

    // The surviving partitions still produce their full diagnosis.
    assert!(
        stdout.contains("partition 0 [sensors 0..2]: ok"),
        "{stdout}"
    );
    assert!(
        stdout.contains("partition 2 [sensors 4..6]: ok"),
        "{stdout}"
    );
}

/// The processes whose command line names `needle` among its arguments.
fn processes_naming(needle: &str) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("procfs") {
        let entry = entry.expect("proc entry");
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A process may exit between the listing and the read.
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let args: Vec<String> = cmdline
            .split(|&b| b == 0)
            .map(|arg| String::from_utf8_lossy(arg).into_owned())
            .collect();
        if args.iter().any(|arg| arg.contains(needle)) {
            found.push((pid, args.join(" ")));
        }
    }
    found
}

#[test]
fn a_refused_run_leaves_no_child_running() {
    let root = tmpdir("refused");
    std::fs::create_dir_all(&root).expect("root");
    let trace = root.join("t.csv");
    let trace = trace.to_str().expect("utf8 path");
    let out = sentinet(&["simulate", trace, "--days", "1", "--sensors", "10"]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    let wal_root = root.join("fleet");
    let wal_root = wal_root.to_str().expect("utf8 path");
    let fsync = fsync_policy();
    let out = sentinet(&[
        "federate",
        trace,
        "--wal-root",
        wal_root,
        "--partitions",
        "2",
        "--fsync",
        &fsync,
        // Partition 1 owns sensors 5..10: sensor 5 is its first, not
        // a point strictly inside, so the split is refused after both
        // children started.
        "--split",
        "1:5@100",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("split point sensor5 not strictly inside 5..10"),
        "{}",
        stderr_of(&out)
    );
    let left = processes_naming(wal_root);
    for (pid, _) in &left {
        // Leave the machine as it was even when the assertion fails.
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    assert!(left.is_empty(), "children left running: {left:?}");
    let _ = std::fs::remove_dir_all(&root);
}
