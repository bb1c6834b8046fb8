//! Injectable storage layer for the gateway's durable state.
//!
//! Every byte the gateway persists — WAL segments and the checkpoint
//! file — flows through the [`Vfs`]/[`VFile`] trait pair. Production
//! uses [`RealVfs`], a zero-cost veneer over `std::fs`. Tests use
//! [`FaultyVfs`], which injects faults at *operation coordinates*: the
//! nth append/fsync/rename/… touching a named path, mirroring the
//! shard/window/point coordinates of `sentinet_engine`'s chaos plans.
//! A fault plan is data, so a failing schedule found by the seeded
//! sweep can be replayed exactly.
//!
//! The fault catalogue covers the storage pathologies the recovery
//! design must survive (§13 of `DESIGN.md`):
//!
//! * [`StorageFault::Enospc`] — the volume fills mid-write;
//! * [`StorageFault::FsyncFail`] — `fsync` reports an I/O error. Per
//!   the fsyncgate lesson, a failed fsync leaves page-cache state
//!   unknowable, so the WAL treats the first failure as poisoning the
//!   writer (fail-stop) rather than retrying;
//! * [`StorageFault::TornWrite`] — a crash mid-write persists only a
//!   prefix of the buffer (modelled by writing `bytes` bytes, then
//!   failing);
//! * [`StorageFault::ReadErr`] — recovery-time reads fail;
//! * [`StorageFault::Slow`] — an operation stalls (latency injection
//!   for timeout paths); the data still goes through.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A typed, cloneable description of a storage failure, carried from
/// the failing syscall up into [`GatewayReport`](crate::GatewayReport)
/// (`std::io::Error` is not `Clone`, so the OS detail is captured as
/// text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError {
    /// Which operation failed.
    pub op: VfsOp,
    /// The path it failed on.
    pub path: PathBuf,
    /// OS-level detail, as text.
    pub detail: String,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage {} failed on {}: {}",
            self.op,
            self.path.display(),
            self.detail
        )
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Wraps an `io::Error` with its operation and path.
    pub fn new(op: VfsOp, path: &Path, err: &std::io::Error) -> Self {
        Self {
            op,
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }
}

/// The storage operations a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VfsOp {
    /// Appending bytes to an open file.
    Append,
    /// Flushing an open file to stable storage.
    Fsync,
    /// Creating (truncating) a file, or opening it for append.
    Create,
    /// Atomically renaming a file.
    Rename,
    /// Removing a file.
    Remove,
    /// Reading a whole file.
    Read,
    /// Writing a whole file (create + write + sync).
    Write,
}

impl fmt::Display for VfsOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            VfsOp::Append => "append",
            VfsOp::Fsync => "fsync",
            VfsOp::Create => "create",
            VfsOp::Rename => "rename",
            VfsOp::Remove => "remove",
            VfsOp::Read => "read",
            VfsOp::Write => "write",
        };
        f.write_str(name)
    }
}

/// An open, appendable file handle.
pub trait VFile: Send {
    /// Appends `buf` at the end of the file.
    ///
    /// # Errors
    ///
    /// Any I/O failure; a partial (torn) write may have persisted a
    /// prefix of `buf`.
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()>;

    /// Flushes file data to stable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Any I/O failure. After a failed fsync the kernel may have
    /// dropped the dirty pages; callers must treat the writer as
    /// poisoned (see `DESIGN.md` §13).
    fn fsync(&mut self) -> std::io::Result<()>;
}

/// The filesystem surface the gateway's durable layer is written
/// against. Implementations must be shareable across threads.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates `dir` and its ancestors (idempotent).
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;

    /// File names (not paths) of `dir`'s direct children.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>>;

    /// Creates (or truncates) `path` for writing.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>>;

    /// Opens `path` for appending (positioned at end of file).
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>>;

    /// Opens a second handle on the file at `path` for a syncer
    /// thread: the WAL keeps appending through its own handle while
    /// this one's [`VFile::fsync`] flushes the same file from another
    /// thread. It must be a separate *open* of the file, not a
    /// duplicate of the appending descriptor — the kernel reports a
    /// writeback error once per open file, so two descriptors that
    /// share one would let a concurrent inline fsync swallow the error
    /// an in-flight background fsync was about to report (or the
    /// reverse), and one of the two would wrongly count as covered.
    ///
    /// The default refuses, and the WAL then syncs inline as it always
    /// did; a [`Vfs`] opts in by implementing it.
    ///
    /// # Errors
    ///
    /// Any I/O failure; [`std::io::ErrorKind::Unsupported`] by default.
    fn open_sync(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        let _ = path;
        Err(std::io::ErrorKind::Unsupported.into())
    }

    /// Reads the whole file at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;

    /// Writes `bytes` as the whole content of `path` and syncs it —
    /// the write half of an atomic tmp-then-rename commit.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Truncates `path` to `len` bytes and syncs (torn-tail repair).
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;

    /// Bytes available on the volume backing `path`, when the
    /// implementation can tell (fault injection can; plain `std` has
    /// no portable API, so [`RealVfs`] returns `None`).
    fn available_space(&self, path: &Path) -> Option<u64>;
}

/// The production [`Vfs`]: a direct pass-through to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl VFile for File {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.write_all(buf)
    }

    fn fsync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

impl Vfs for RealVfs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }

    fn open_sync(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        self.open_append(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn available_space(&self, _path: &Path) -> Option<u64> {
        None
    }
}

/// What a triggered fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The operation fails with `ENOSPC` (volume full). Nothing is
    /// persisted.
    Enospc,
    /// `fsync` (or the targeted operation) fails with `EIO`; for an
    /// append, the data *is* written — it is the flush whose promise
    /// breaks.
    FsyncFail,
    /// Only the first `bytes` bytes of the buffer persist before the
    /// operation fails — a crash mid-write.
    TornWrite {
        /// How many bytes of the buffer survive.
        bytes: usize,
    },
    /// The operation fails with `EIO` on the read path.
    ReadErr,
    /// The operation stalls for `ms` milliseconds, then succeeds.
    Slow {
        /// Injected latency in milliseconds.
        ms: u64,
    },
}

/// One scheduled fault: the `nth` (1-based) operation of kind `op`
/// whose path ends with `path` fires `kind`, `count` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Path suffix to match (e.g. a file name like `wal-00000002.seg`,
    /// or `""` to match every path).
    pub path: String,
    /// The operation to intercept.
    pub op: VfsOp,
    /// Which matching occurrence triggers (1-based).
    pub nth: u64,
    /// What happens when it triggers.
    pub kind: StorageFault,
    /// How many consecutive matching occurrences fire (a permanently
    /// failing disk is `u32::MAX`).
    pub count: u32,
}

/// A deterministic schedule of storage faults, mirroring
/// `sentinet_engine`'s chaos plans: a plan is plain data, built
/// explicitly with [`FaultPlan::with_fault`] or drawn from a seed with
/// [`FaultPlan::seeded`], and injected by wrapping the real storage in
/// a [`FaultyVfs`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules anything.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds one fault to the schedule.
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// Draws `num_faults` random fault coordinates over the given path
    /// suffixes from a seed. The same seed always yields the same
    /// plan, so a failing schedule found by a sweep is reproducible
    /// from its seed alone.
    pub fn seeded(seed: u64, paths: &[&str], num_faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = [
            VfsOp::Append,
            VfsOp::Fsync,
            VfsOp::Create,
            VfsOp::Rename,
            VfsOp::Remove,
            VfsOp::Read,
            VfsOp::Write,
        ];
        let mut plan = Self::new();
        for _ in 0..num_faults {
            let path = if paths.is_empty() {
                String::new()
            } else {
                paths[rng.gen_range(0..paths.len())].to_string()
            };
            let op = ops[rng.gen_range(0..ops.len())];
            let kind = match rng.gen_range(0..5u8) {
                0 => StorageFault::Enospc,
                1 => StorageFault::FsyncFail,
                2 => StorageFault::TornWrite {
                    bytes: rng.gen_range(0..32),
                },
                3 => StorageFault::ReadErr,
                _ => StorageFault::Slow {
                    ms: rng.gen_range(1..10),
                },
            };
            plan = plan.with_fault(FaultSpec {
                path,
                op,
                nth: rng.gen_range(1..20),
                kind,
                count: rng.gen_range(1..3),
            });
        }
        plan
    }
}

/// Shared interception state: the plan plus per-spec occurrence
/// counters, keyed by spec index.
#[derive(Debug)]
struct PlanState {
    plan: FaultPlan,
    /// Per-spec count of matching operations seen so far.
    seen: Vec<u64>,
    /// Per-spec count of firings already consumed.
    fired: Vec<u32>,
    /// Every fault actually injected, for test assertions.
    injected: Vec<(VfsOp, PathBuf, StorageFault)>,
    /// Total operations observed per kind, plan-independent — the
    /// observability hook tests use to prove an I/O fast path (e.g.
    /// "this checkpoint issued zero fsyncs") actually ran.
    op_counts: std::collections::BTreeMap<VfsOp, u64>,
}

impl PlanState {
    /// Registers one `op` on `path`; returns the fault to inject, if
    /// any spec's coordinates match.
    fn intercept(&mut self, op: VfsOp, path: &Path) -> Option<StorageFault> {
        *self.op_counts.entry(op).or_insert(0) += 1;
        for (i, spec) in self.plan.faults.iter().enumerate() {
            if spec.op != op || !path.to_string_lossy().ends_with(&spec.path) {
                continue;
            }
            self.seen[i] += 1;
            let occurrence = self.seen[i];
            let window = spec.nth..spec.nth + u64::from(spec.count);
            if window.contains(&occurrence) && self.fired[i] < spec.count {
                self.fired[i] += 1;
                self.injected.push((op, path.to_path_buf(), spec.kind));
                return Some(spec.kind);
            }
        }
        None
    }
}

fn enospc() -> std::io::Error {
    std::io::Error::from_raw_os_error(28) // ENOSPC
}

fn eio() -> std::io::Error {
    std::io::Error::from_raw_os_error(5) // EIO
}

/// A [`Vfs`] that executes a [`FaultPlan`] over a real filesystem:
/// every operation is counted against the plan's coordinates and
/// either performed, delayed, truncated, or failed as scheduled.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: RealVfs,
    state: Arc<Mutex<PlanState>>,
}

impl FaultyVfs {
    /// Wraps the real filesystem with a fault schedule.
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.faults.len();
        Self {
            inner: RealVfs,
            state: Arc::new(Mutex::new(PlanState {
                plan,
                seen: vec![0; n],
                fired: vec![0; n],
                injected: Vec::new(),
                op_counts: std::collections::BTreeMap::new(),
            })),
        }
    }

    /// Every fault injected so far, in firing order.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the plan lock.
    pub fn injected(&self) -> Vec<(VfsOp, PathBuf, StorageFault)> {
        // sentinet-allow(expect-used): lock poisoning means a panic already unwound through the vfs; propagate it
        self.state.lock().expect("fault plan lock").injected.clone()
    }

    /// Total `op` operations this vfs has intercepted (fault-injected
    /// or not) — lets a test assert an I/O fast path, e.g. that a
    /// checkpoint whose cursor is already synced issues zero fsyncs.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the plan lock.
    pub fn op_count(&self, op: VfsOp) -> u64 {
        // sentinet-allow(expect-used): lock poisoning means a panic already unwound through the vfs; propagate it
        let state = self.state.lock().expect("fault plan lock");
        state.op_counts.get(&op).copied().unwrap_or(0)
    }

    fn intercept(&self, op: VfsOp, path: &Path) -> Option<StorageFault> {
        let fault = self
            .state
            .lock()
            // sentinet-allow(expect-used): lock poisoning means a panic already unwound through the vfs; propagate it
            .expect("fault plan lock")
            .intercept(op, path);
        if let Some(StorageFault::Slow { ms }) = fault {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        fault
    }

    /// Maps an intercepted fault on a whole-operation path (no torn
    /// semantics) to its error, or `None` for `Slow` (which already
    /// slept and lets the operation proceed).
    fn verdict(fault: Option<StorageFault>) -> Result<(), std::io::Error> {
        match fault {
            None | Some(StorageFault::Slow { .. }) => Ok(()),
            Some(StorageFault::Enospc) => Err(enospc()),
            Some(
                StorageFault::FsyncFail | StorageFault::ReadErr | StorageFault::TornWrite { .. },
            ) => Err(eio()),
        }
    }
}

/// A [`VFile`] whose appends and fsyncs are counted against the plan.
struct FaultyFile {
    inner: Box<dyn VFile>,
    path: PathBuf,
    state: Arc<Mutex<PlanState>>,
}

impl FaultyFile {
    fn intercept(&self, op: VfsOp) -> Option<StorageFault> {
        let fault = self
            .state
            .lock()
            // sentinet-allow(expect-used): lock poisoning means a panic already unwound through the vfs; propagate it
            .expect("fault plan lock")
            .intercept(op, &self.path);
        if let Some(StorageFault::Slow { ms }) = fault {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        fault
    }
}

impl VFile for FaultyFile {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self.intercept(VfsOp::Append) {
            None | Some(StorageFault::Slow { .. }) => self.inner.append(buf),
            Some(StorageFault::Enospc) => Err(enospc()),
            Some(StorageFault::TornWrite { bytes }) => {
                // A crash mid-write persists a prefix only.
                self.inner.append(&buf[..bytes.min(buf.len())])?;
                let _ = self.inner.fsync();
                Err(eio())
            }
            Some(StorageFault::FsyncFail | StorageFault::ReadErr) => Err(eio()),
        }
    }

    fn fsync(&mut self) -> std::io::Result<()> {
        match self.intercept(VfsOp::Fsync) {
            None | Some(StorageFault::Slow { .. }) => self.inner.fsync(),
            Some(_) => Err(eio()),
        }
    }
}

impl Vfs for FaultyVfs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        FaultyVfs::verdict(self.intercept(VfsOp::Read, dir))?;
        self.inner.list(dir)
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        FaultyVfs::verdict(self.intercept(VfsOp::Create, path))?;
        Ok(Box::new(FaultyFile {
            inner: self.inner.create(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        FaultyVfs::verdict(self.intercept(VfsOp::Create, path))?;
        Ok(Box::new(FaultyFile {
            inner: self.inner.open_append(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }

    /// The open itself is not an operation coordinate (a plan aimed
    /// at `Create` counts the same opens with or without a syncer);
    /// every fsync through the handle counts as [`VfsOp::Fsync`] on
    /// `path`, exactly like one through the appending handle.
    fn open_sync(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        Ok(Box::new(FaultyFile {
            inner: self.inner.open_sync(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        FaultyVfs::verdict(self.intercept(VfsOp::Read, path))?;
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.intercept(VfsOp::Write, path) {
            None | Some(StorageFault::Slow { .. }) => self.inner.write_file(path, bytes),
            Some(StorageFault::Enospc) => Err(enospc()),
            Some(StorageFault::TornWrite { bytes: n }) => {
                self.inner.write_file(path, &bytes[..n.min(bytes.len())])?;
                Err(eio())
            }
            Some(StorageFault::FsyncFail | StorageFault::ReadErr) => Err(eio()),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        FaultyVfs::verdict(self.intercept(VfsOp::Write, path))?;
        self.inner.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        FaultyVfs::verdict(self.intercept(VfsOp::Rename, to))?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        FaultyVfs::verdict(self.intercept(VfsOp::Remove, path))?;
        self.inner.remove_file(path)
    }

    fn available_space(&self, path: &Path) -> Option<u64> {
        self.inner.available_space(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sentinet-vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn real_vfs_round_trips_files() {
        let dir = tmpdir("real");
        let vfs = RealVfs;
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.fsync().unwrap();
        drop(f);
        let mut f = vfs.open_append(&path).unwrap();
        f.append(b"world").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        assert_eq!(vfs.list(&dir).unwrap(), vec!["a.bin".to_string()]);
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let moved = dir.join("b.bin");
        vfs.rename(&path, &moved).unwrap();
        vfs.remove_file(&moved).unwrap();
        assert!(vfs.list(&dir).unwrap().is_empty());
        assert!(vfs.available_space(&dir).is_none());
    }

    #[test]
    fn faults_fire_at_their_coordinates_and_count_down() {
        let dir = tmpdir("coords");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: "x.bin".into(),
            op: VfsOp::Append,
            nth: 2,
            kind: StorageFault::Enospc,
            count: 2,
        });
        let vfs = FaultyVfs::new(plan);
        let mut f = vfs.create(dir.join("x.bin").as_path()).unwrap();
        assert!(f.append(b"1").is_ok(), "append #1 clean");
        let err = f.append(b"2").expect_err("append #2 faulted");
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        assert!(f.append(b"3").is_err(), "append #3 faulted (count=2)");
        assert!(f.append(b"4").is_ok(), "append #4 clean again");
        assert_eq!(vfs.injected().len(), 2);
        // Unrelated paths never match.
        let mut g = vfs.create(dir.join("y.bin").as_path()).unwrap();
        for _ in 0..8 {
            g.append(b"z").unwrap();
        }
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let dir = tmpdir("torn");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: "t.bin".into(),
            op: VfsOp::Append,
            nth: 1,
            kind: StorageFault::TornWrite { bytes: 3 },
            count: 1,
        });
        let vfs = FaultyVfs::new(plan);
        let path = dir.join("t.bin");
        let mut f = vfs.create(&path).unwrap();
        assert!(f.append(b"abcdef").is_err());
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"abc");
    }

    #[test]
    fn fsync_rename_and_read_faults_fail_typed() {
        let dir = tmpdir("ops");
        let plan = FaultPlan::new()
            .with_fault(FaultSpec {
                path: "f.bin".into(),
                op: VfsOp::Fsync,
                nth: 1,
                kind: StorageFault::FsyncFail,
                count: 1,
            })
            .with_fault(FaultSpec {
                path: "dst.bin".into(),
                op: VfsOp::Rename,
                nth: 1,
                kind: StorageFault::Enospc,
                count: 1,
            })
            .with_fault(FaultSpec {
                path: "f.bin".into(),
                op: VfsOp::Read,
                nth: 1,
                kind: StorageFault::ReadErr,
                count: 1,
            });
        let vfs = FaultyVfs::new(plan);
        let path = dir.join("f.bin");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"data").unwrap();
        assert!(f.fsync().is_err(), "fsync fault");
        f.fsync().expect("fsync recovered (count exhausted)");
        drop(f);
        assert!(vfs.rename(&path, dir.join("dst.bin").as_path()).is_err());
        assert!(vfs.read(&path).is_err(), "read fault");
        assert_eq!(vfs.read(&path).unwrap(), b"data", "read recovered");
        let kinds: Vec<VfsOp> = vfs.injected().iter().map(|(op, _, _)| *op).collect();
        assert_eq!(kinds, vec![VfsOp::Fsync, VfsOp::Rename, VfsOp::Read]);
    }

    #[test]
    fn sync_handle_fsyncs_count_against_the_same_plan_and_path() {
        let dir = tmpdir("sync-handle");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: "h.bin".into(),
            op: VfsOp::Fsync,
            nth: 2,
            kind: StorageFault::FsyncFail,
            count: 1,
        });
        let vfs = FaultyVfs::new(plan);
        let path = dir.join("h.bin");
        let mut file = vfs.create(&path).unwrap();
        let mut handle = vfs.open_sync(&path).unwrap();
        assert_eq!(vfs.op_count(VfsOp::Create), 1, "the open is uncounted");
        file.append(b"data").unwrap();
        file.fsync()
            .expect("fsync #1 on the path, through the file");
        assert!(handle.fsync().is_err(), "fsync #2, through the handle");
        handle.fsync().expect("fsync #3");
        assert_eq!(vfs.op_count(VfsOp::Fsync), 3);
        assert_eq!(
            vfs.injected(),
            vec![(VfsOp::Fsync, path.clone(), StorageFault::FsyncFail)]
        );
        // The handle is a second open of the same file, so bytes
        // appended through the first are there to flush.
        assert_eq!(vfs.read(&path).unwrap(), b"data");
    }

    #[test]
    fn slow_fault_delays_but_succeeds() {
        let dir = tmpdir("slow");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: "s.bin".into(),
            op: VfsOp::Append,
            nth: 1,
            kind: StorageFault::Slow { ms: 20 },
            count: 1,
        });
        let vfs = FaultyVfs::new(plan);
        let path = dir.join("s.bin");
        let mut f = vfs.create(&path).unwrap();
        let start = std::time::Instant::now();
        f.append(b"ok").expect("slow append still lands");
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"ok");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, &["wal-00000001.seg", "checkpoint.ck"], 6);
        let b = FaultPlan::seeded(42, &["wal-00000001.seg", "checkpoint.ck"], 6);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 6);
        let c = FaultPlan::seeded(43, &["wal-00000001.seg", "checkpoint.ck"], 6);
        assert_ne!(a, c, "different seed, different plan");
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn storage_error_displays_op_and_path() {
        let e = StorageError::new(VfsOp::Fsync, Path::new("/w/wal-00000001.seg"), &eio());
        let shown = e.to_string();
        assert!(shown.contains("fsync"), "{shown}");
        assert!(shown.contains("wal-00000001.seg"), "{shown}");
    }
}
