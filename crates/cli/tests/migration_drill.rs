//! Whole-process live-migration drills: `sentinet federate --split`
//! splits a hot partition while real `sentinet serve` children ingest
//! the stream over the pipelined v2 uplink, and a `--kill` coordinate
//! equal to the split trigger SIGKILLs the source exactly when the
//! handoff's cut probe runs. The controller must fail the source over
//! and retry the cut at the identical WAL coordinate, producing a
//! fleet diagnosis byte-identical to the uninterrupted run of the
//! same migration schedule. The mirror drill kills the rebalance
//! destination at the adopt step.
//!
//! A moved sensor's sequence numbers continue from the source's, so
//! the uplink must carry the routed numbers: a migration admits every
//! reading and prints the fleet diagnosis recorded from the
//! stop-and-wait links the fleet used to speak.
//!
//! `SENTINET_TEST_FSYNC` sweeps the children's fsync policy as in the
//! other federation drills.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fsync_policy() -> String {
    std::env::var("SENTINET_TEST_FSYNC").unwrap_or_else(|_| "never".into())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sentinet-migration-{name}-{}", std::process::id()));
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

fn completed_cursor(events: &str) -> u64 {
    let line = events
        .lines()
        .find(|l| l.contains("completed at t=") && l.contains("cut cursor "))
        .unwrap_or_else(|| panic!("missing migration-completed event:\n{events}"));
    let rest = &line[line.find("cut cursor ").expect("cursor") + "cut cursor ".len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("cursor number")
}

#[test]
fn sigkill_at_the_cut_of_a_live_v2_split_matches_the_baseline() {
    let root = tmpdir("split-kill");
    let trace = simulate_trace(&root);

    // Partition 1 owns sensors 2..4; once it has routed 100 readings
    // (~tick 50 of 576) it splits at sensor 3, the upper half moving
    // to a freshly spawned partition 3 — squarely mid-stream.
    let schedule = ["--split", "1:3@100"];
    let base = federate(&trace, &root.join("base"), &schedule);
    assert!(
        base.status.success(),
        "baseline migration run failed: {}",
        stderr_of(&base)
    );
    let base_events = stderr_of(&base);
    assert!(
        base_events.contains("migration of sensors 3..4 from partition 1 to 3 completed"),
        "baseline migration never completed:\n{base_events}"
    );

    // The kill coordinate equals the split trigger: partition 1 has
    // handed exactly 100 readings when the handoff starts, so the
    // SIGKILL fires inside the cut probe — the child dies mid-handoff
    // and the controller must fail over, then retry the cut.
    let drill = federate(
        &trace,
        &root.join("drill"),
        &["--split", "1:3@100", "--kill", "1:100"],
    );
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "SIGKILL at the cut + failover must reproduce the uninterrupted \
         migration diagnosis byte for byte\n--- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    assert!(
        events.contains("partition 1 failed over to epoch 2"),
        "the source never failed over mid-handoff:\n{events}"
    );
    assert!(
        events.contains("migration of sensors 3..4 from partition 1 to 3 completed"),
        "the drilled migration never completed:\n{events}"
    );
    // The retried cut lands at the identical WAL coordinate.
    assert_eq!(
        completed_cursor(&events),
        completed_cursor(&base_events),
        "the retried cut moved the cut coordinate:\n{events}"
    );
}

#[test]
fn sigkill_at_the_adopt_of_a_live_rebalance_matches_the_baseline() {
    let root = tmpdir("rebalance-kill");
    let trace = simulate_trace(&root);

    // Partition 1's whole range rebalances into left-adjacent
    // partition 0 once it has routed 100 readings.
    let schedule = ["--rebalance", "1@100"];
    let base = federate(&trace, &root.join("base"), &schedule);
    assert!(
        base.status.success(),
        "baseline rebalance run failed: {}",
        stderr_of(&base)
    );
    let base_events = stderr_of(&base);
    assert!(
        base_events.contains("migration of sensors 2..4 from partition 1 to 0 completed"),
        "baseline rebalance never completed:\n{base_events}"
    );

    // Partition 0 is the destination; its kill coordinate sits at its
    // approximate handed count at trigger time, so the SIGKILL lands
    // on or right around the adopt probe (the trace's natural packet
    // loss keeps the two partitions' counts from aligning exactly) —
    // either way the destination dies inside the drill window and the
    // baseline contract must hold.
    let drill = federate(
        &trace,
        &root.join("drill"),
        &["--rebalance", "1@100", "--kill", "0:100"],
    );
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "SIGKILL at the adopt + failover must reproduce the uninterrupted \
         rebalance diagnosis byte for byte\n--- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    assert!(
        events.contains("partition 0 failed over to epoch 2"),
        "the destination never failed over mid-adopt:\n{events}"
    );
    assert!(
        events.contains("migration of sensors 2..4 from partition 1 to 0 completed"),
        "the drilled rebalance never completed:\n{events}"
    );
}

#[test]
fn a_migration_admits_every_reading_and_prints_the_recorded_diagnosis() {
    let root = tmpdir("admits");
    let trace = simulate_trace(&root);
    for (name, schedule, recorded) in [
        (
            "split",
            ["--split", "1:3@100"],
            include_str!("fixtures/federate_split.stdout"),
        ),
        (
            "rebalance",
            ["--rebalance", "1@100"],
            include_str!("fixtures/federate_rebalance.stdout"),
        ),
    ] {
        let out = federate(&trace, &root.join(name), &schedule);
        let stderr = stderr_of(&out);
        assert!(out.status.success(), "{name} failed: {stderr}");
        // Every reading of the trace; none deduplicated away as
        // already seen by the adopting collector, none late.
        assert!(
            stderr.contains("fleet counters: 2853 accepted, 0 duplicate(s), 0 late,"),
            "{name} lost readings in the handoff:\n{stderr}"
        );
        assert_eq!(
            stdout_of(&out),
            recorded,
            "{name}: the migration must reach the recorded diagnosis"
        );
    }
}
