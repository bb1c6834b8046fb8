//! End-to-end tests of the `sentinet` binary: spawn the real
//! executable, round-trip a trace through simulate → analyze, and check
//! the report and exit codes a scripting user depends on.

use std::process::Command;

fn sentinet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sentinet"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sentinet-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = sentinet().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("simulate"));
    assert!(text.contains("analyze"));
}

#[test]
fn unknown_command_exits_2_with_usage() {
    let out = sentinet().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

/// The sharded engine's flags are gone from the binary: a script that
/// still passes one stops with a usage error naming the flag.
#[test]
fn sharded_engine_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["analyze", "t.csv", "--shards", "2"][..], "--shards"),
        (&["analyze", "t.csv", "--chaos-seed", "7"], "--chaos-seed"),
        (
            &["analyze", "t.csv", "--max-shard-restarts", "3"],
            "--max-shard-restarts",
        ),
        (
            &["replay-wal", "--wal-dir", "w", "--shards", "2"],
            "--shards",
        ),
    ] {
        let out = sentinet().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag:?}")), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn clean_roundtrip_reports_error_free() {
    let path = tmp("clean.csv");
    let out = sentinet()
        .args([
            "simulate",
            path.to_str().unwrap(),
            "--days",
            "2",
            "--seed",
            "5",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sentinet()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "clean trace must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("network attack signature: none"));
    assert!(text.contains("recovery plan"));
}

#[test]
fn stuck_fault_is_flagged_with_exit_code_3() {
    let path = tmp("stuck.csv");
    let out = sentinet()
        .args([
            "simulate",
            path.to_str().unwrap(),
            "--days",
            "7",
            "--seed",
            "6",
            "--fault",
            "6:stuck=15,1",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sentinet()
        .args(["analyze", path.to_str().unwrap(), "--quiet"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "flagged trace must exit 3");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sensor6"));
    assert!(text.contains("stuck-at"), "{text}");
}

#[test]
fn deletion_attack_is_flagged() {
    let path = tmp("attack.csv");
    let out = sentinet()
        .args([
            "simulate",
            path.to_str().unwrap(),
            "--days",
            "8",
            "--seed",
            "7",
            "--attack",
            "3:delete=12,94",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sentinet()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("deletion") || text.contains("attack"),
        "{text}"
    );
    assert!(text.contains("Quarantine"), "{text}");
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = sentinet()
        .args(["analyze", "/nonexistent/definitely-missing.csv"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn simulate_rejects_out_of_range_fault_sensor() {
    let path = tmp("bad.csv");
    let out = sentinet()
        .args([
            "simulate",
            path.to_str().unwrap(),
            "--sensors",
            "4",
            "--fault",
            "9:stuck=1,1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}
