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
//! A restored snapshot that names buffered readings by log position is
//! completed on the way to its cursor: from its redo cursor on, each
//! logged reading only refills the reorder buffer
//! ([`ReorderBuffer::refill`]) — no dedup, liveness or downstream — and
//! at the cursor the opening thread checks that every named front was
//! reached before the replay proper starts.
//!
//! Until [`WORKER_BYTES`] of log are read the same two halves run
//! inline, batch by batch: on a small log a thread costs more than the
//! overlap saves.

use super::*;
use crate::snapshot::is_current_layout;
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
    /// What happens at the checkpoint's cursor.
    pub(super) check: Option<Check<'c>>,
}

/// What a reopen does at its checkpoint's cursor.
pub(super) enum Check<'c> {
    /// Compare the replayed state with the checkpoint, byte for byte.
    Verify(&'c CheckpointData),
    /// The restored snapshot names readings by position: refill them
    /// from the redo cursor up to `cursor`, then check the fronts.
    Refill(&'c ByPosition, u64),
}

impl Check<'_> {
    fn cursor(&self) -> u64 {
        match self {
            Check::Verify(ck) => ck.cursor,
            Check::Refill(_, cursor) => *cursor,
        }
    }
}

impl Replay<'_> {
    /// Opens the log and replays each record from `from` on into
    /// `state`, returning the log and, once the replay passed the
    /// checkpoint's cursor, the verdict of the check there.
    pub(super) fn run(
        self,
        config: WalConfig,
        base: Option<(u64, u64)>,
        state: &mut State,
    ) -> Result<(Wal, Verdict), WalError> {
        let State { intake, down } = state;
        let shared = Mutex::new(intake);
        let front = Front {
            intake: &shared,
            frame: ReadingArena::default(),
            batch: batch(),
            at: self.at,
            from: self.from,
            cut: self.check.as_ref().map(Check::cursor),
            refill: match self.check {
                Some(Check::Refill(named, _)) => Some(named),
                _ => None,
            },
        };
        let back = Back {
            intake: &shared,
            down,
            check: self.check,
            verdict: None,
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
            Ok((wal, opener.back.verdict))
        })
    }

    /// Opens the log, verifying every frame and replaying none: a
    /// restore point that cannot be restored still waits for the log's
    /// own refusals, which come first.
    pub(super) fn discard(
        self,
        config: WalConfig,
        base: Option<(u64, u64)>,
    ) -> Result<(Wal, Verdict), WalError> {
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

/// What the check at the cursor found, once the replay passed it: `Ok`,
/// or the refusal [`Collector::open`] returns.
pub(super) type Verdict = Option<Result<(), GatewayError>>;

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
    /// The readings the restored snapshot names by position, refilled
    /// from the redo cursor up to `cut`.
    refill: Option<&'s ByPosition>,
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
            refill,
        } = self;
        let mut out = Batcher { batch, hand };
        let scanned = scan_segment(path, bytes, frame, &mut |sensor, seq, run| {
            let (start, len) = (*at, run.len());
            *at += len as u64;
            let offset = |index: u64| index.saturating_sub(start).min(len as u64) as usize;
            let mut held = lock(intake);
            if let (Some(named), Some(cursor)) = (*refill, *cut) {
                held.refill(
                    sensor,
                    named,
                    start,
                    run,
                    offset(named.redo)..offset(cursor),
                );
            }
            let skip = offset(*from);
            let cut = cut.filter(|&cursor| start < cursor && cursor <= *at);
            let mid = cut.map_or(len, |cursor| (cursor - start) as usize);
            held.replay(sensor, seq, start, run, skip..mid, &mut out);
            if cut.is_some() {
                out.flush();
                drop(held);
                out.hand.cut();
                held = lock(intake);
                held.replay(sensor, seq, start, run, mid..len, &mut out);
            }
        });
        out.flush();
        scanned
    }
}

impl Intake {
    /// Refills the reorder buffer with readings `at` of one logged frame
    /// whose first reading is log index `start`, when `named` names the
    /// sensor's buffered readings by position.
    fn refill(
        &mut self,
        sensor: SensorId,
        named: &ByPosition,
        start: u64,
        frame: &ReadingArena,
        at: Range<usize>,
    ) {
        if let Some(front) = named.front(sensor).filter(|_| !at.is_empty()) {
            let logged = start + at.start as u64;
            self.reorder.refill(sensor, front, logged, frame.range(at));
        }
    }

    /// Replays readings `at` of one logged frame from seq `seq` and log
    /// index `start` on: seen by the dedup tracker, then admitted
    /// through the live path's run admission, released into `out`.
    fn replay(
        &mut self,
        sensor: SensorId,
        seq: u64,
        start: u64,
        frame: &ReadingArena,
        at: Range<usize>,
        out: &mut Batcher<'_, impl Hand>,
    ) {
        if at.is_empty() {
            return;
        }
        let tracker = self.seqs.entry(sensor).or_default();
        tracker.observe_run(seq.wrapping_add(at.start as u64), at.len() as u64);
        let logged = Some(start + at.start as u64);
        self.admit_run(sensor, logged, frame.range(at), |time, sensor, values| {
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
/// readings in order and runs the check at the cursor.
struct Back<'s, 'c> {
    intake: &'s Shared<'s>,
    down: &'s mut Downstream,
    check: Option<Check<'c>>,
    verdict: Verdict,
}

/// What the check at the cursor takes from the intake while the replay
/// waits there.
enum AtCut {
    /// The intake's half of the snapshot to compare.
    Half(IntakeSnapshot),
    /// Whether the refill reached every front.
    Refilled(Result<(), String>),
}

impl Hand for Back<'_, '_> {
    fn batch(&mut self, batch: &mut Batch) {
        for ((time, sensor), values) in batch.iter() {
            self.down.take(time, sensor, values);
        }
        batch.truncate(0);
    }

    fn cut(&mut self) {
        let taken = self.take();
        self.settle(taken);
    }
}

impl Back<'_, '_> {
    /// The intake's part of the check, under its lock. A full log's
    /// restore point names readings by position from base 0; an older
    /// layout's wrote them all by value.
    fn take(&self) -> Option<AtCut> {
        let mut intake = lock(self.intake);
        Some(match self.check.as_ref()? {
            Check::Verify(ck) if is_current_layout(ck.body()) => {
                AtCut::Half(intake.restore_point(0))
            }
            Check::Verify(_) => AtCut::Half(intake.snapshot()),
            Check::Refill(named, _) => AtCut::Refilled(intake.reorder.check_refill(named)),
        })
    }

    /// Completes the check with what [`Back::take`] took: the snapshot
    /// `half` completes is compared with the checkpoint body, or — for
    /// a body an older layout wrote, a nested pipeline's included —
    /// with its re-encoding.
    fn settle(&mut self, taken: Option<AtCut>) {
        let verdict = match (taken, &self.check) {
            (Some(AtCut::Half(half)), Some(Check::Verify(ck))) => {
                let now = encode_collector(&self.down.snapshot(half));
                // Current text re-encodes to itself, so a mismatch
                // decodes only to be confirmed.
                let matched =
                    now == ck.body() || ck.snapshot().is_ok_and(|s| encode_collector(&s) == now);
                let cursor = ck.cursor;
                matched
                    .then_some(())
                    .ok_or(GatewayError::CheckpointMismatch { cursor })
            }
            (Some(AtCut::Refilled(refilled)), _) => {
                refilled.map_err(GatewayError::CheckpointMalformed)
            }
            _ => return,
        };
        self.verdict = Some(verdict);
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
                        let taken = back.take();
                        let _ = self.resume.send(());
                        back.settle(taken);
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
