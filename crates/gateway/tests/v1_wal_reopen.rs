//! An upgraded collector opens the WAL directory an older binary
//! wrote. The fixtures are two directories `sentinet serve --watermark
//! 600 --checkpoint-every 32` wrote for the same 240-reading stream
//! before checkpoint layout v2, so their `checkpoint.ck` nests layout
//! v1 text: `full` keeps every segment (the checkpoint is verified as
//! the full-log replay passes its cursor), `retained` ran under a
//! `--wal-retain-bytes` budget (the checkpoint is the restore point,
//! the only copy of the state below it). Both must reopen and finish
//! with the report that binary printed, `report.txt`.

use sentinet_gateway::{Collector, GatewayConfig};
use std::fs;
use std::path::{Path, PathBuf};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_wal");

/// A private copy of fixture directory `name`: opening may rewrite it.
fn copy_of(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-v1-wal-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    for entry in fs::read_dir(Path::new(FIXTURES).join(name)).expect("fixture dir") {
        let entry = entry.expect("fixture entry");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy fixture");
    }
    dir
}

#[test]
fn a_wal_directory_with_a_v1_checkpoint_reopens_with_its_report() {
    let printed = fs::read_to_string(Path::new(FIXTURES).join("report.txt")).expect("report");
    let (report, _plan) = printed.split_once("\nrecovery plan:").expect("two parts");
    for (name, verified, restored) in [("full", Some(224), None), ("retained", None, Some(224))] {
        let dir = copy_of(name);
        let mut config = GatewayConfig::new(&dir);
        config.reorder.watermark_delay = 600;
        config.checkpoint_every = 0;
        let (collector, info) = Collector::open(config).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (info.verified_cursor, info.restored_from),
            (verified, restored),
            "{name}"
        );
        let finished = collector.finish().expect("finish");
        assert_eq!(finished.pipeline.to_string(), report, "{name}");
        fs::remove_dir_all(&dir).ok();
    }
}
