//! Fixture tests for the lint engine.
//!
//! The `.rs` files under `tests/fixtures/` are test data, never
//! compiled: `bad_lib.rs` makes every lint fire exactly once,
//! `suppressed.rs` silences the same violations with `sentinet-allow`,
//! and `clean_lib.rs` is a well-formed crate root. The exit-code tests
//! drive the compiled `xtask` binary so the CI contract (non-zero on
//! findings, zero when clean) is pinned directly.

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::lint::{self, FileContext, LINTS};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("fixture readable")
}

/// Lib-root context with `hot` registered as a hot-path function, so
/// the header and hot-path lints participate alongside the rest.
fn full_ctx() -> FileContext {
    FileContext {
        exempt_crate: false,
        is_lib_root: true,
        engine_crate: false,
        gateway_crate: false,
        controller_crate: false,
        controller_commit_file: false,
        vfs_file: false,
        protocol_core_file: false,
        wire_codec_file: false,
        codec_file: true,
        hot_functions: vec!["hot".into()],
    }
}

#[test]
fn bad_fixture_fires_every_lint_exactly_once() {
    let findings = lint::lint_source(&fixture("bad_lib.rs"), &read("bad_lib.rs"), &full_ctx());
    for lint in LINTS {
        let count = findings.iter().filter(|f| f.lint == *lint).count();
        assert_eq!(count, 1, "lint `{lint}` fired {count} times: {findings:?}");
    }
    assert_eq!(findings.len(), LINTS.len(), "{findings:?}");
}

#[test]
fn suppressed_fixture_is_silent() {
    let ctx = FileContext {
        codec_file: true,
        hot_functions: vec!["hot".into()],
        ..FileContext::default()
    };
    let findings = lint::lint_source(&fixture("suppressed.rs"), &read("suppressed.rs"), &ctx);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn clean_fixture_passes_as_lib_root() {
    let findings = lint::lint_source(&fixture("clean_lib.rs"), &read("clean_lib.rs"), &full_ctx());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lint_binary_exits_nonzero_on_seeded_bad_fixture() {
    let status = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg(fixture("bad_lib.rs"))
        .output()
        .expect("xtask binary runs");
    assert!(!status.status.success());
    let stderr = String::from_utf8_lossy(&status.stderr);
    assert!(stderr.contains("unwrap-used"), "{stderr}");
}

/// Pins the lint output contract shared by `xtask lint` and `xtask
/// analyze`: every finding is one stderr line of the form
/// `file:line: [lint] message`, followed by a `lint: N finding(s)`
/// summary whose count matches the number of finding lines.
#[test]
fn lint_binary_output_format_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg(fixture("bad_lib.rs"))
        .output()
        .expect("xtask binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().filter(|l| !l.is_empty()).collect();
    let (summary, findings) = lines.split_last().expect("at least a summary line");
    assert!(!findings.is_empty(), "{stderr}");
    for line in findings {
        // `file:line: [lint] message` — path prefix, a numeric line, a
        // bracketed lint name, then the message.
        let rest = line
            .strip_prefix(&*fixture("bad_lib.rs").to_string_lossy())
            .unwrap_or_else(|| panic!("finding does not start with the file path: {line}"));
        let rest = rest.strip_prefix(':').expect("colon after path");
        let (line_no, rest) = rest.split_once(": [").expect("`: [` after line number");
        assert!(
            line_no.chars().all(|c| c.is_ascii_digit()) && !line_no.is_empty(),
            "non-numeric line number in: {line}"
        );
        let (lint_name, message) = rest.split_once("] ").expect("`] ` after lint name");
        assert!(
            lint::LINTS.contains(&lint_name),
            "unknown lint `{lint_name}` in: {line}"
        );
        assert!(!message.is_empty(), "empty message in: {line}");
    }
    assert_eq!(
        *summary,
        format!("lint: {} finding(s)", findings.len()),
        "summary count must match the finding lines\n{stderr}"
    );
}

#[test]
fn lint_binary_exits_zero_on_clean_fixture() {
    let status = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg(fixture("clean_lib.rs"))
        .status()
        .expect("xtask binary runs");
    assert!(status.success());
}
