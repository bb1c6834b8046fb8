//! What the harness reads from the host: memory high-water mark, the
//! filesystem under the WAL directories, and the scratch directories
//! themselves.

use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Peak resident set of this process in MiB (`VmHWM`), or `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Filesystem type holding `dir`, from the longest matching mount
/// point. On tmpfs an fsync is free, so every ingest number means
/// something else there — the run prints this beside them.
pub fn filesystem_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Hardware threads the process may use.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Jiffies the hypervisor kept from this guest and jiffies in all,
/// over every CPU since boot (`/proc/stat`); `None` off Linux.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The share of the CPU time between two [`cpu_ticks`] readings that
/// the hypervisor gave to other guests.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Total bytes of the regular files directly inside `dir` (a WAL
/// directory is flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The scratch root of one benchmark process. Every WAL directory the
/// run creates lives under it, and dropping it removes them all — on
/// success, on a failed check and on a panic alike.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: Cell<usize>,
}

impl Scratch {
    /// Creates `<base>/sentinet-benchmark-<pid>`.
    pub fn new(base: &Path) -> std::io::Result<Self> {
        let root = base.join(format!("sentinet-benchmark-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: Cell::new(0),
        })
    }

    /// The scratch root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A path under the root no earlier call returned (not created).
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.replace(self.next.get() + 1);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a directory a rep is done with; the [`Scratch`] drop would
/// get it anyway, but a long run should not hold every rep's log.
pub fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_stolen_over_elapsed_ticks() {
        assert_eq!(steal_share(Some((10, 1_000)), Some((60, 2_000))), 0.05);
        assert_eq!(steal_share(None, Some((60, 2_000))), 0.0);
        assert_eq!(steal_share(Some((10, 1_000)), Some((10, 1_000))), 0.0);
    }
}
