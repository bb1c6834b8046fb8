//! A reopen's replay: every logged record through the admission path,
//! on two threads once the log is large enough to pay for the second.
//!
//! The replay splits where admission already does, at the release. The
//! intake half — the segment scan (envelope, CRC, decode), dedup,
//! reorder and liveness — runs on one scoped worker over segment bytes
//! the opening thread read and lends it. The downstream half —
//! sanitizer and window pipeline — stays on the opening thread, which
//! takes the released readings in order, a batch at a time, from a small
//! fixed pool of arenas it allocated itself. Every storage call (list,
//! read, torn-tail truncate, the append handle) stays on the opening
//! thread in [`Wal::open`]'s order: a segment's scan result is back
//! before the next segment is read.
//!
//! A checkpoint under verification is compared exactly: at its cursor
//! the intake hands on its batch and waits while the opening thread,
//! every earlier batch applied, takes the snapshot — the intake's half
//! too, so every byte of it is allocated there — then compares bytes
//! while the replay goes on.
//!
//! Until [`WORKER_BYTES`] of log are read the same two halves run
//! inline, batch by batch: on a small log a thread costs more than the
//! overlap saves.

use super::*;
use crate::wal::{scan_segment, Scanned};
use std::ops::Range;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// Log bytes read at which a reopen moves the rest of its intake half
/// onto a worker thread. Measured on a 2-vCPU host over a ten-sensor
/// log: a spawn costs ≈ 0.08 ms, what replaying ≈ 20 KiB takes; the two
/// threads break even at ≈ 64 KiB of log and save ≈ 30 % from 200 KiB
/// on. Four times the break-even keeps every small log — the model
/// checker's thousands of opens among them — on one thread.
const WORKER_BYTES: u64 = 256 << 10;
/// Released readings a batch holds before it is handed on.
const BATCH_READINGS: usize = 256;
/// Values a batch has room for: four a reading. A reading that would
/// overfill it starts the next batch instead.
const BATCH_VALUES: usize = 4 * BATCH_READINGS;
/// Batches a worker's replay cycles through: one filling, the rest on
/// their way to the opening thread or back.
const POOL: usize = 4;

/// Released readings on their way to [`Downstream`], in release order.
type Batch = ReadingArena<(Timestamp, SensorId)>;

/// The intake, shared by the two halves: the replay runs through it a
/// frame at a time, and the opening thread snapshots it at the cursor
/// while the replay waits.
type Shared<'a> = Mutex<&'a mut Intake>;

/// The intake, locked. A poisoned lock means the replay panicked holding
/// it; the scope re-raises that panic when the open returns, and nothing
/// is taken from the intake in between.
fn lock<'a, 'b>(shared: &'a Shared<'b>) -> MutexGuard<'a, &'b mut Intake> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An empty batch with its room.
fn batch() -> Batch {
    let mut batch = Batch::default();
    batch.reserve(BATCH_READINGS, BATCH_VALUES);
    batch
}

/// Where a reopen's replay starts and what it checks.
pub(super) struct Replay<'c> {
    /// Absolute index of the log's first on-disk reading.
    pub(super) at: u64,
    /// Readings below this index are the restored snapshot's.
    pub(super) from: u64,
    /// The checkpoint to verify where its cursor falls.
    pub(super) verify: Option<&'c CheckpointData>,
}

impl Replay<'_> {
    /// Opens the log and replays each record from `from` on into
    /// `state`, returning the log and, once the replay passed the
    /// verified checkpoint's cursor, whether the state there matched it.
    pub(super) fn run(
        self,
        config: WalConfig,
        base: Option<(u64, u64)>,
        state: &mut State,
    ) -> Result<(Wal, Option<bool>), WalError> {
        let State { intake, down } = state;
        let shared = Mutex::new(intake);
        let front = Front {
            intake: &shared,
            frame: ReadingArena::default(),
            batch: batch(),
            at: self.at,
            from: self.from,
            cut: self.verify.map(|ck| ck.cursor),
        };
        let back = Back {
            intake: &shared,
            down,
            verify: self.verify,
            matched: None,
        };
        // The worker, if one started, ends when the opener (and with it
        // the segment queue) is dropped, before the scope joins it.
        std::thread::scope(|scope| {
            let mut opener = Opener {
                scope,
                front: Some(front),
                link: None,
                back,
                read: 0,
            };
            let wal = Wal::open_with(config, base, &mut |path, bytes| opener.segment(path, bytes))?;
            Ok((wal, opener.back.matched))
        })
    }

    /// Opens the log, verifying every frame and replaying none: a
    /// restore point that cannot be restored still waits for the log's
    /// own refusals, which come first.
    pub(super) fn discard(
        self,
        config: WalConfig,
        base: Option<(u64, u64)>,
    ) -> Result<(Wal, Option<bool>), WalError> {
        let mut frame = ReadingArena::default();
        let mut scan = |path: &Path, bytes: Vec<u8>| {
            scan_segment(path, &bytes, &mut frame, &mut |_, _, _: &ReadingArena| {})
        };
        Ok((Wal::open_with(config, base, &mut scan)?, None))
    }
}

/// What [`Wal::open_with`] hands each segment to during a reopen: the
/// intake half runs here until [`WORKER_BYTES`] of log are read, on a
/// scoped worker from then on; the downstream half always runs here.
struct Opener<'scope, 'env, 'c> {
    scope: &'scope Scope<'scope, 'env>,
    /// The intake half while it runs on this thread.
    front: Option<Front<'env>>,
    /// The worker it moved to.
    link: Option<Link>,
    back: Back<'env, 'c>,
    /// Log bytes read so far.
    read: u64,
}

impl Opener<'_, '_, '_> {
    fn segment(&mut self, path: &Path, bytes: Vec<u8>) -> Result<Scanned, WalError> {
        self.read += bytes.len() as u64;
        if self.read >= WORKER_BYTES {
            if let Some(front) = self.front.take() {
                self.link = Some(Link::spawn(self.scope, front));
            }
        }
        match (&mut self.front, &mut self.link) {
            (Some(front), _) => front.segment(path, &bytes, &mut self.back),
            (None, Some(link)) => link.segment(path, bytes, &mut self.back),
            // sentinet-allow(panic-used): the front leaves only for the link it starts
            (None, None) => unreachable!("the intake half is inline or on a worker"),
        }
    }
}

/// The intake half: scans a segment and replays each verified frame
/// through dedup, reorder and liveness, releasing into its batch.
struct Front<'s> {
    intake: &'s Shared<'s>,
    /// One frame's readings as decoded.
    frame: ReadingArena,
    /// The released readings not yet handed on.
    batch: Batch,
    /// Absolute index of the next reading scanned.
    at: u64,
    /// Readings below this index are the restored snapshot's.
    from: u64,
    /// The cursor at which the snapshot is checked.
    cut: Option<u64>,
}

impl Front<'_> {
    /// Scans `bytes` and replays each frame as it verifies, handing
    /// `hand` every batch it fills — the last before the scan result —
    /// and, at the cursor, waiting on it while the snapshot is taken.
    fn segment(
        &mut self,
        path: &Path,
        bytes: &[u8],
        hand: &mut impl Hand,
    ) -> Result<Scanned, WalError> {
        let Self {
            intake,
            frame,
            batch,
            at,
            from,
            cut,
        } = self;
        let mut out = Batcher { batch, hand };
        let scanned = scan_segment(path, bytes, frame, &mut |sensor, seq, run| {
            let (start, len) = (*at, run.len());
            *at += len as u64;
            let skip = from.saturating_sub(start).min(len as u64) as usize;
            let cut = cut.filter(|&cursor| start < cursor && cursor <= *at);
            let mid = cut.map_or(len, |cursor| (cursor - start) as usize);
            let mut held = lock(intake);
            held.replay(sensor, seq, run, skip..mid, &mut out);
            if cut.is_some() {
                out.flush();
                drop(held);
                out.hand.cut();
                held = lock(intake);
                held.replay(sensor, seq, run, mid..len, &mut out);
            }
        });
        out.flush();
        scanned
    }
}

impl Intake {
    /// Replays readings `at` of one logged frame from seq `seq` on:
    /// seen by the dedup tracker, then admitted through the live path's
    /// run admission, released into `out`.
    fn replay(
        &mut self,
        sensor: SensorId,
        seq: u64,
        frame: &ReadingArena,
        at: Range<usize>,
        out: &mut Batcher<'_, impl Hand>,
    ) {
        if at.is_empty() {
            return;
        }
        let tracker = self.seqs.entry(sensor).or_default();
        tracker.observe_run(seq.wrapping_add(at.start as u64), at.len() as u64);
        self.admit_run(sensor, frame.range(at), |time, sensor, values| {
            out.push(time, sensor, values);
        });
    }
}

/// Where the intake half's batches go, and who takes the snapshot at
/// the cursor.
trait Hand {
    /// Takes `batch`'s readings, leaving it empty — or an empty batch
    /// in its place.
    fn batch(&mut self, batch: &mut Batch);
    /// The replay is at the cursor, every reading released before it
    /// handed on and the intake unlocked: returns once the snapshot
    /// there is taken.
    fn cut(&mut self);
}

/// The replay's release sink: readings gathered into a batch, handed on
/// whole.
struct Batcher<'a, H> {
    batch: &'a mut Batch,
    hand: &'a mut H,
}

impl<H: Hand> Batcher<'_, H> {
    fn push(&mut self, time: Timestamp, sensor: SensorId, values: &[f64]) {
        let room = self.batch.values.capacity() - self.batch.values.len();
        if self.batch.len() == BATCH_READINGS || values.len() > room {
            self.flush();
        }
        self.batch.push((time, sensor), values);
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            self.hand.batch(self.batch);
        }
    }
}

/// The downstream half, on the opening thread: applies the released
/// readings in order and checks the snapshot at the cursor.
struct Back<'s, 'c> {
    intake: &'s Shared<'s>,
    down: &'s mut Downstream,
    verify: Option<&'c CheckpointData>,
    matched: Option<bool>,
}

impl Hand for Back<'_, '_> {
    fn batch(&mut self, batch: &mut Batch) {
        for ((time, sensor), values) in batch.iter() {
            self.down.take(time, sensor, values);
        }
        batch.truncate(0);
    }

    fn cut(&mut self) {
        let half = lock(self.intake).snapshot();
        self.check(half);
    }
}

impl Back<'_, '_> {
    /// Compares the snapshot `half` completes with the checkpoint body.
    fn check(&mut self, half: IntakeSnapshot) {
        let Some(ck) = self.verify else { return };
        let now = encode_collector(&self.down.snapshot(half));
        // An older binary's (layout v1 to v3) matches once re-encoded.
        let older = || ck.snapshot().is_ok_and(|s| encode_collector(&s) == now);
        self.matched = Some(now == ck.body() || older());
    }
}

/// What the worker posts to the opening thread, in replay order.
enum Post {
    /// Released readings to apply; the batch comes back empty.
    Batch(Batch),
    /// The replay is at the cursor and waits for [`Link::resume`].
    Cut,
    /// A segment's scan result, with the lent path and bytes back to be
    /// freed where they were allocated.
    Segment(Lent, Result<Scanned, WalError>),
}

/// A segment's path and bytes, lent to the worker.
type Lent = (PathBuf, Vec<u8>);

/// The worker's end: batches out, empty ones back, and the go-ahead
/// after a cut.
struct Poster {
    posts: SyncSender<Post>,
    free: Receiver<Batch>,
    resume: Receiver<()>,
}

impl Hand for Poster {
    fn batch(&mut self, batch: &mut Batch) {
        // With the opening thread gone (it panicked) nothing reads on:
        // the readings are dropped and the scan runs out.
        match self.free.recv() {
            Ok(empty) => {
                let _ = self
                    .posts
                    .send(Post::Batch(std::mem::replace(batch, empty)));
            }
            Err(_) => batch.truncate(0),
        }
    }

    fn cut(&mut self) {
        if self.posts.send(Post::Cut).is_ok() {
            let _ = self.resume.recv();
        }
    }
}

/// The opening thread's end of the worker.
struct Link {
    segments: SyncSender<Lent>,
    posts: Receiver<Post>,
    free: SyncSender<Batch>,
    resume: SyncSender<()>,
}

impl Link {
    /// Starts the worker that runs `front` over the segments it is
    /// lent, with the rest of the batch pool allocated here.
    fn spawn<'scope, 'env>(scope: &'scope Scope<'scope, 'env>, mut front: Front<'env>) -> Self {
        let (segments, lent) = sync_channel::<Lent>(1);
        let (posts, inbox) = sync_channel(POOL + 1);
        let (free, pool) = sync_channel(POOL);
        let (resume, go) = sync_channel(1);
        for _ in 1..POOL {
            let _ = free.send(batch());
        }
        scope.spawn(move || {
            let mut hand = Poster {
                posts,
                free: pool,
                resume: go,
            };
            while let Ok((path, bytes)) = lent.recv() {
                let scanned = front.segment(&path, &bytes, &mut hand);
                if hand
                    .posts
                    .send(Post::Segment((path, bytes), scanned))
                    .is_err()
                {
                    break;
                }
            }
        });
        Self {
            segments,
            posts: inbox,
            free,
            resume,
        }
    }

    /// Lends the worker one segment's bytes and applies what it posts,
    /// in order, until the segment's scan result comes back.
    fn segment(
        &mut self,
        path: &Path,
        bytes: Vec<u8>,
        back: &mut Back,
    ) -> Result<Scanned, WalError> {
        if self.segments.send((path.to_path_buf(), bytes)).is_ok() {
            while let Ok(post) = self.posts.recv() {
                match post {
                    Post::Batch(mut batch) => {
                        back.batch(&mut batch);
                        let _ = self.free.send(batch);
                    }
                    Post::Cut => {
                        let half = lock(back.intake).snapshot();
                        let _ = self.resume.send(());
                        back.check(half);
                    }
                    Post::Segment(lent, scanned) => {
                        drop(lent);
                        return scanned;
                    }
                }
            }
        }
        // The worker stopped mid-segment: it panicked, and the scope
        // raises that panic once the open returns.
        let stopped = std::io::Error::other("the replay worker stopped");
        Err(WalError::Io(path.to_path_buf(), stopped))
    }
}
