//! Pins the storage-level behaviour of the paths that were folded
//! together: v1 `Collector::deliver` (now a batch of one through the
//! `deliver_batch` body and `Wal::append_many`) and the sidecar files
//! (checkpoint, fence token, retired ranges, migration outbox), which
//! share one tmp+rename writer and one magic-header reader.
//!
//! Each scenario runs over a recording [`Vfs`] and compares the whole
//! operation trace — every create/append/fsync/write/rename/remove in
//! order, with byte counts and a hash of every whole-file write — to a
//! digest recorded by running this same file at the commit *before*
//! the fold. Fsync count, segment-roll points (`create wal-…`),
//! checkpoint cadence (`write checkpoint.tmp`) and the nth-operation
//! coordinates `FaultPlan`s aim at are all functions of that trace, so
//! an equal digest means fault plans and crash drills replay unchanged.
//! On mismatch the test prints the trace for diffing.

use sentinet_gateway::{
    Collector, DeliverOutcome, FsyncPolicy, GatewayConfig, RealVfs, VFile, Vfs, Wal, WalConfig,
};
use sentinet_sim::SensorId;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-io-trace-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

type Log = Arc<Mutex<Vec<String>>>;

fn leaf(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// A pass-through [`Vfs`] that records every operation it sees.
#[derive(Debug, Default)]
struct TraceVfs {
    log: Log,
}

fn note(log: &Log, line: String) {
    log.lock().expect("trace lock").push(line);
}

impl TraceVfs {
    fn note(&self, line: String) {
        note(&self.log, line);
    }

    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.log.lock().expect("trace lock"))
    }
}

struct TraceFile {
    inner: Box<dyn VFile>,
    name: String,
    log: Log,
}

impl VFile for TraceFile {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        note(&self.log, format!("append {} {}", self.name, buf.len()));
        self.inner.append(buf)
    }

    fn fsync(&mut self) -> std::io::Result<()> {
        note(&self.log, format!("fsync {}", self.name));
        self.inner.fsync()
    }
}

impl Vfs for TraceVfs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.note("mkdir".into());
        RealVfs.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.note("list".into());
        RealVfs.list(dir)
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        self.note(format!("create {}", leaf(path)));
        Ok(Box::new(TraceFile {
            inner: RealVfs.create(path)?,
            name: leaf(path),
            log: Arc::clone(&self.log),
        }))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        self.note(format!("open {}", leaf(path)));
        Ok(Box::new(TraceFile {
            inner: RealVfs.open_append(path)?,
            name: leaf(path),
            log: Arc::clone(&self.log),
        }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let result = RealVfs.read(path);
        self.note(format!("read {} ok={}", leaf(path), result.is_ok()));
        result
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.note(format!(
            "write {} {} {:016x}",
            leaf(path),
            bytes.len(),
            fnv(bytes)
        ));
        RealVfs.write_file(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.note(format!("truncate {} {len}", leaf(path)));
        RealVfs.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.note(format!("rename {} {}", leaf(from), leaf(to)));
        RealVfs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.note(format!("remove {}", leaf(path)));
        RealVfs.remove_file(path)
    }

    fn available_space(&self, path: &Path) -> Option<u64> {
        RealVfs.available_space(path)
    }
}

/// `(operations, fsyncs, segment creates, checkpoint commits, hash)`.
type Digest = (usize, usize, usize, usize, u64);

fn digest(trace: &[String]) -> Digest {
    let count = |prefix: &str| trace.iter().filter(|l| l.starts_with(prefix)).count();
    (
        trace.len(),
        count("fsync "),
        count("create wal-"),
        count("rename checkpoint.tmp"),
        fnv(trace.join("\n").as_bytes()),
    )
}

fn assert_digest(what: &str, trace: &[String], expected: Digest) {
    let got = digest(trace);
    assert_eq!(
        got,
        expected,
        "{what}: storage trace diverged from the pre-fold commit\n{}",
        trace.join("\n")
    );
}

fn config(dir: &Path, vfs: &Arc<TraceVfs>) -> GatewayConfig {
    let mut c = GatewayConfig::new(dir);
    c.reorder.watermark_delay = 600;
    c.checkpoint_every = 16;
    c.wal.vfs = Arc::clone(vfs) as Arc<dyn Vfs>;
    // 45-byte frames: a segment rolls every 13 records, and the
    // budget forces checkpoint-gated reclaims along the way.
    c.wal.segment_max_bytes = 600;
    c.wal.retain_bytes = Some(2_000);
    c
}

/// Two sensors, `n` rounds, one reading each per round.
fn stream(n: u64) -> impl Iterator<Item = (SensorId, u64, u64, Vec<f64>)> {
    (0..n).flat_map(|i| {
        (0..2u16).map(move |s| {
            let v = 20.0 + (i % 7) as f64 + f64::from(s);
            (SensorId(s), i, 300 * (i + 1), vec![v, v + 30.0])
        })
    })
}

/// v1 `deliver`×100 (with every fifth reading redelivered, so the
/// duplicate path is in the trace) under `policy`, through `finish`.
fn v1_trace(name: &str, policy: FsyncPolicy) -> Vec<String> {
    let dir = tmpdir(name);
    let vfs = Arc::new(TraceVfs::default());
    let mut cfg = config(&dir, &vfs);
    cfg.wal.fsync = policy;
    let (mut c, _) = Collector::open(cfg).expect("open");
    for (i, (s, seq, t, v)) in stream(50).enumerate() {
        let outcome = c.deliver(s, seq, t, v.clone()).expect("deliver");
        assert_eq!(outcome, DeliverOutcome::Accepted);
        if i % 5 == 0 {
            let again = c.deliver(s, seq, t, v).expect("redeliver");
            assert_eq!(again, DeliverOutcome::Duplicate);
        }
    }
    c.finish().expect("finish");
    let _ = fs::remove_dir_all(&dir);
    vfs.take()
}

#[test]
fn v1_deliver_storage_trace_is_pinned_under_batch_8() {
    let trace = v1_trace("batch8", FsyncPolicy::Batch(8));
    assert_digest("v1 batch:8", &trace, V1_BATCH8);
}

#[test]
fn v1_deliver_storage_trace_is_pinned_under_always() {
    let trace = v1_trace("always", FsyncPolicy::Always);
    assert_digest("v1 always", &trace, V1_ALWAYS);
}

/// Every sidecar writer and reader in one run: fence token commit on
/// open, periodic checkpoints, a migration cut (retired ranges, outbox,
/// restore-point checkpoint), a retried cut (outbox read back), the
/// abort path (import + un-retire + outbox removal), a reopen (all four
/// readers), and `install_snapshot` into a fresh directory.
#[test]
fn sidecar_storage_trace_is_pinned() {
    let dir = tmpdir("sidecar");
    let vfs = Arc::new(TraceVfs::default());
    let mut cfg = config(&dir, &vfs);
    cfg.wal.retain_bytes = None;
    cfg.epoch = 2;
    let (mut c, _) = Collector::open(cfg.clone()).expect("open");
    for (s, seq, t, v) in stream(20) {
        c.deliver(s, seq, t, v).expect("deliver");
    }
    let (inside, cursor) = c.export_range(1..2).expect("cut");
    let (again, cursor_again) = c.export_range(1..2).expect("retried cut");
    assert_eq!(cursor, cursor_again);
    assert_eq!(
        sentinet_gateway::encode_collector(&inside),
        sentinet_gateway::encode_collector(&again)
    );
    c.import_range(1..2, &inside).expect("abort path");
    let (inside, cursor) = c.export_range(1..2).expect("second cut");
    drop(c);
    let (c, _) = Collector::open(cfg.clone()).expect("reopen");
    assert_eq!(c.retired_ranges(), &[(1, 2)]);
    c.clear_outbox(1..2);
    drop(c);

    let dest = tmpdir("sidecar-dest");
    let mut dest_cfg = cfg;
    dest_cfg.wal.dir = dest.clone();
    Collector::install_snapshot(&dest_cfg, &inside, cursor).expect("install");
    let (d, info) = Collector::open(dest_cfg).expect("open destination");
    assert_eq!(info.restored_from, Some(cursor.max(1)));
    drop(d);

    let trace = vfs.take();
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dest);
    assert_digest("sidecars", &trace, SIDECARS);
}

/// The `crash_after` chaos coordinate on the v1 path: the process dies
/// right after the Nth append — no earlier, no later. The test re-runs
/// itself as a child that delivers past the coordinate; the parent
/// asserts the child aborted and that the log holds exactly N records.
#[test]
fn v1_crash_after_aborts_at_the_exact_append() {
    const VAR: &str = "SENTINET_IO_TRACE_CRASH_DIR";
    const AT: u64 = 11;
    if let Ok(dir) = std::env::var(VAR) {
        let mut cfg = GatewayConfig::new(dir);
        cfg.wal.fsync = FsyncPolicy::Batch(8);
        cfg.wal.crash_after = Some(AT);
        let (mut c, _) = Collector::open(cfg).expect("open");
        for (s, seq, t, v) in stream(20) {
            c.deliver(s, seq, t, v).expect("deliver");
        }
        unreachable!("crash_after must abort the process before the stream ends");
    }
    let dir = tmpdir("crash-after");
    let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "v1_crash_after_aborts_at_the_exact_append"])
        .env(VAR, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child");
    assert!(!status.success(), "child must die at the chaos coordinate");
    let (_, records) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
    assert_eq!(records.len() as u64, AT, "abort landed off the coordinate");
    let _ = fs::remove_dir_all(&dir);
}

// Recorded at the parent of the fold (commit bcd44bd) by running this
// file there unchanged.
const V1_BATCH8: Digest = (163, 22, 8, 11, 6_628_196_687_120_928_042);
const V1_ALWAYS: Digest = (249, 108, 8, 11, 17_538_360_735_587_581_595);
const SIDECARS: Digest = (155, 4, 6, 7, 15_792_531_130_171_244_957);
