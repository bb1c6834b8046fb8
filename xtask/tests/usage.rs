//! The xtask binary's dispatch: a command it does not know, such as the
//! retired `bench-check`, prints the usage and exits 2.

use std::process::Command;

#[test]
fn unknown_command_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("bench-check")
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
    assert!(
        usage.starts_with("Usage: cargo run -p xtask -- <command>"),
        "{usage}"
    );
    for command in ["analyze", "lint", "protocol-check", "nemesis"] {
        assert!(
            usage.contains(&format!("\n  {command} ")),
            "{command}: {usage}"
        );
    }
    assert!(!usage.contains("bench-check"), "{usage}");
}
