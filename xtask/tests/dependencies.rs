//! The workspace builds with nothing to download: every package the
//! root `Cargo.lock` names is a workspace crate or a stand-in under
//! `vendor/`, and every stand-in there is one the lock still needs — a
//! crate nothing depends on any more is deleted, not carried.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits in the workspace root")
        .to_path_buf()
}

/// Every `[[package]]` of the root lock file: its name, and whether it
/// names a `source` (a registry or a git remote to fetch from).
fn locked_packages() -> Vec<(String, bool)> {
    let lock = fs::read_to_string(root().join("Cargo.lock")).expect("root Cargo.lock");
    lock.split("[[package]]")
        .skip(1)
        .map(|entry| {
            let name = entry
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .expect("every package has a name")
                .trim_matches('"')
                .to_string();
            (name, entry.lines().any(|l| l.starts_with("source = ")))
        })
        .collect()
}

#[test]
fn nothing_in_the_lock_comes_from_a_registry_or_a_remote() {
    let fetched: Vec<String> = locked_packages()
        .into_iter()
        .filter(|(_, fetched)| *fetched)
        .map(|(name, _)| name)
        .collect();
    assert!(fetched.is_empty(), "to download: {fetched:?}");
}

#[test]
fn the_stand_ins_under_vendor_are_exactly_the_outside_crates_the_lock_needs() {
    let mut outside: Vec<String> = locked_packages()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !name.starts_with("sentinet-") && name != "xtask")
        .collect();
    outside.sort();
    let mut vendored: Vec<String> = fs::read_dir(root().join("vendor"))
        .expect("vendor directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.is_dir())
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    vendored.sort();
    assert_eq!(vendored, outside);
}
