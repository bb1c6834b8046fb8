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
//!
//! Each scenario is also pinned as pipeline layout v4 wrote it: the
//! same trace with every whole-file write's bytes taken back to v4
//! (`runs::as_v4`: a row's `+0.0` cell in 16 digits) hashes to the
//! digest recorded before layout v5, so v5 moved those writes' bytes
//! and nothing else.

#[path = "../../../tests/support/runs.rs"]
mod runs;
#[path = "../../../tests/support/seeded.rs"]
mod seeded;

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

/// A pass-through [`Vfs`] that records every operation it sees, and
/// each whole-file write's line as its layout-v4 bytes would read.
#[derive(Debug, Default)]
struct TraceVfs {
    log: Log,
    v4_writes: Mutex<Vec<(usize, String)>>,
}

/// A recorded trace, and the same trace with every whole-file write
/// as its layout-v4 bytes.
struct Trace {
    ops: Vec<String>,
    v4: Vec<String>,
}

fn write_line(path: &Path, bytes: &[u8]) -> String {
    format!("write {} {} {:016x}", leaf(path), bytes.len(), fnv(bytes))
}

fn note(log: &Log, line: String) {
    log.lock().expect("trace lock").push(line);
}

impl TraceVfs {
    fn note(&self, line: String) {
        note(&self.log, line);
    }

    fn take(&self) -> Trace {
        let ops = std::mem::take(&mut *self.log.lock().expect("trace lock"));
        let mut v4 = ops.clone();
        for (at, line) in std::mem::take(&mut *self.v4_writes.lock().expect("trace lock")) {
            v4[at] = line;
        }
        Trace { ops, v4 }
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
        let v4 = match std::str::from_utf8(bytes) {
            Ok(text) => write_line(path, runs::as_v4(text).as_bytes()),
            Err(_) => write_line(path, bytes),
        };
        let mut log = self.log.lock().expect("trace lock");
        let at = log.len();
        log.push(write_line(path, bytes));
        drop(log);
        self.v4_writes.lock().expect("trace lock").push((at, v4));
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

/// `trace` hashes to `expected`, and as layout v4 wrote it to
/// `expected_v4`.
fn assert_digest(what: &str, trace: &Trace, expected: Digest, expected_v4: Digest) {
    assert_eq!(
        digest(&trace.ops),
        expected,
        "{what}: storage trace diverged from the pre-fold commit\n{}",
        trace.ops.join("\n")
    );
    assert_eq!(
        digest(&trace.v4),
        expected_v4,
        "{what}: as layout v4, the trace diverged from v4's\n{}",
        trace.v4.join("\n")
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
fn v1_trace(name: &str, policy: FsyncPolicy) -> Trace {
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
    assert_digest("v1 batch:8", &trace, V1_BATCH8, V1_BATCH8_V4);
}

#[test]
fn v1_deliver_storage_trace_is_pinned_under_always() {
    let trace = v1_trace("always", FsyncPolicy::Always);
    assert_digest("v1 always", &trace, V1_ALWAYS, V1_ALWAYS_V4);
}

/// Every sidecar writer and reader in one run: fence token commit on
/// open, periodic checkpoints, a migration cut (retired ranges, outbox,
/// restore-point checkpoint), a retried cut (outbox read back), the
/// abort path (import + un-retire + outbox removal), a reopen (all four
/// readers), and an adoption on a fresh directory, reopened.
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
    c.adopt_range(1..2, cursor, &inside).expect("abort path");
    let (inside, cursor) = c.export_range(1..2).expect("second cut");
    drop(c);
    let (c, _) = Collector::open(cfg.clone()).expect("reopen");
    assert_eq!(c.retired_ranges(), &[(1, 2)]);
    c.clear_outbox(1..2);
    drop(c);

    let dest = tmpdir("sidecar-dest");
    let mut dest_cfg = cfg;
    dest_cfg.wal.dir = dest.clone();
    let (mut d, _) = Collector::open(dest_cfg.clone()).expect("open destination");
    d.adopt_range(1..2, cursor, &inside).expect("adopt");
    drop(d);
    let (d, info) = Collector::open(dest_cfg).expect("reopen destination");
    assert_eq!(info.restored_from, Some(cursor.max(1)));
    drop(d);

    let trace = vfs.take();
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dest);
    assert_digest("sidecars", &trace, SIDECARS, SIDECARS_V4);
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

/// The `crash_after` chaos coordinate on the v2 path: the write that
/// logs the Nth reading is a whole batch, so the batch that crosses the
/// coordinate is logged whole and the process aborts right after it.
/// As the v1 test above: a child delivers past the coordinate, and the
/// parent asserts it aborted and what the log holds.
#[test]
fn v2_crash_after_logs_the_crossing_batch_whole() {
    const VAR: &str = "SENTINET_IO_TRACE_CRASH_V2_DIR";
    const AT: u64 = 11;
    const BATCH: u64 = 4;
    if let Ok(dir) = std::env::var(VAR) {
        let mut cfg = GatewayConfig::new(dir);
        cfg.wal.fsync = FsyncPolicy::Batch(8);
        cfg.wal.crash_after = Some(AT);
        let (mut c, _) = Collector::open(cfg).expect("open");
        for round in 0..5 {
            for s in 0..2u16 {
                let first = round * BATCH;
                let batch: Vec<(u64, Vec<f64>)> = (first..first + BATCH)
                    .map(|i| (300 * (i + 1), vec![20.0 + f64::from(s), 50.0]))
                    .collect();
                c.deliver_batch(SensorId(s), first, &batch)
                    .expect("deliver batch");
            }
        }
        unreachable!("crash_after must abort the process before the stream ends");
    }
    let dir = tmpdir("crash-after-v2");
    let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "v2_crash_after_logs_the_crossing_batch_whole"])
        .env(VAR, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child");
    assert!(!status.success(), "child must die at the chaos coordinate");
    let (_, records) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
    assert_eq!(
        records.len() as u64,
        AT.div_ceil(BATCH) * BATCH,
        "the batch crossing the coordinate is not logged whole"
    );
    let _ = fs::remove_dir_all(&dir);
}

// Recorded at the parent of the fold (commit bcd44bd) by running this
// file there unchanged. The hashes were re-recorded when checkpoint
// layouts v2 and then v3 replaced the one before, which changes every
// checkpoint write's bytes and nothing else: each older checkpoint,
// read back by the newer reader, re-encodes to the newer one, and the
// four counts did not move. Collector layout v2 re-recorded them once
// more: every by-value checkpoint and outbox of the older run re-encodes
// to the newer bytes, and a checkpoint naming readings by log position
// is the older one's with exactly its named sensors' `rbuf` lines (each
// sensor's from its front on) traded for `redo` and `front`.
// `SIDECARS` was re-recorded once the destination adopted through
// `Collector::open` and `adopt_range` instead of a standalone installer:
// the first 140 operations are unchanged, and the installer's four
// (mkdir, list, the checkpoint write and its rename) became the open of
// the empty directory, the same 740-byte checkpoint write and rename,
// and a reopen. Pipeline layout v5 re-recorded the hashes: the `_V4`
// digests are the ones recorded before it, which each trace still reads
// with its writes taken back to v4.
const V1_BATCH8: Digest = (163, 22, 8, 11, 13_560_635_758_969_829_421);
const V1_ALWAYS: Digest = (249, 108, 8, 11, 11_361_765_663_545_195_278);
const SIDECARS: Digest = (160, 4, 6, 7, 584_272_243_355_728_532);
const V1_BATCH8_V4: Digest = (163, 22, 8, 11, 2_933_840_930_673_984_016);
const V1_ALWAYS_V4: Digest = (249, 108, 8, 11, 6_197_346_999_602_157_433);
const SIDECARS_V4: Digest = (160, 4, 6, 7, 5_325_072_956_716_507_308);
