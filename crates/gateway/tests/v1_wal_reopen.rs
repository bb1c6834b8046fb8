//! An upgraded collector opens the WAL directory an older binary
//! wrote. The fixtures are four generations of two directories each,
//! written by `sentinet serve --watermark 600 --checkpoint-every 32`
//! for the same 240-reading stream: `v1_wal` before checkpoint layout
//! v2, so its `checkpoint.ck` nests layout v1 text, `v2_wal` before
//! layout v3, nesting v2 text, `v3_wal` before layout v4, nesting
//! v3 text (every raw-alarm window a token of its own), and `v4_wal`
//! before pipeline layout v5, nesting v4 text (a row's `+0.0` cell in
//! 16 digits). In each,
//! `full` keeps every segment (the checkpoint is verified as the
//! full-log replay passes its cursor), `retained` ran under a
//! `--wal-retain-bytes` budget (the checkpoint is the restore point,
//! the only copy of the state below it). All eight must reopen and
//! finish with the report that binary printed, `report.txt`.

use sentinet_gateway::{Collector, GatewayConfig};
use std::fs;
use std::path::{Path, PathBuf};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// A private copy of fixture directory `generation/name`: opening may
/// rewrite it.
fn copy_of(generation: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-{generation}-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    let fixture = Path::new(FIXTURES).join(generation).join(name);
    for entry in fs::read_dir(fixture).expect("fixture dir") {
        let entry = entry.expect("fixture entry");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy fixture");
    }
    dir
}

/// Reopens and finishes both directories of `generation`.
fn reopens_with_its_report(generation: &str) {
    let printed = Path::new(FIXTURES).join(generation).join("report.txt");
    let printed = fs::read_to_string(printed).expect("report");
    let (report, _plan) = printed.split_once("\nrecovery plan:").expect("two parts");
    for (name, verified, restored) in [("full", Some(224), None), ("retained", None, Some(224))] {
        let dir = copy_of(generation, name);
        let mut config = GatewayConfig::new(&dir);
        config.reorder.watermark_delay = 600;
        config.checkpoint_every = 0;
        let (collector, info) =
            Collector::open(config).unwrap_or_else(|e| panic!("{generation} {name}: {e}"));
        assert_eq!(
            (info.verified_cursor, info.restored_from),
            (verified, restored),
            "{generation} {name}"
        );
        let finished = collector.finish().expect("finish");
        assert_eq!(finished.pipeline.to_string(), report, "{generation} {name}");
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_wal_directory_with_a_v1_checkpoint_reopens_with_its_report() {
    reopens_with_its_report("v1_wal");
}

#[test]
fn a_wal_directory_with_a_v2_checkpoint_reopens_with_its_report() {
    reopens_with_its_report("v2_wal");
}

#[test]
fn a_wal_directory_with_a_v3_checkpoint_reopens_with_its_report() {
    reopens_with_its_report("v3_wal");
}

#[test]
fn a_wal_directory_with_a_v4_checkpoint_reopens_with_its_report() {
    reopens_with_its_report("v4_wal");
}
