//! Watermark reorder buffer.
//!
//! Store-and-forward radios and retries deliver records out of
//! timestamp order. The sanitizer deliberately rejects out-of-order
//! records (reordering there would break replay determinism), so
//! without help every late packet would become silent data loss. This
//! buffer holds admitted records and releases them in `(time, sensor)`
//! order once they fall behind a watermark, turning bounded network
//! reordering into in-order delivery and leaving the sanitizer's
//! rejection as a last-resort guard rather than the common path.
//!
//! Invariants, which together guarantee the released stream always
//! satisfies the sanitizer's ordering rules:
//!
//! * The **watermark** is `max(admitted time) − watermark_delay`.
//!   Records are released (sorted) only once their time is at or below
//!   the watermark, so any record arriving within `watermark_delay` of
//!   the newest data is re-sequenced losslessly.
//! * A record older than the watermark at arrival, or at or before its
//!   sensor's last released time, is dropped as **late** (counted) —
//!   it can no longer be placed without violating release order.
//! * A record whose `(time, sensor)` slot is already buffered is a
//!   **duplicate** (counted); the first arrival wins.
//! * Each sensor may buffer at most `per_sensor_capacity` records;
//!   overflow **sheds** that sensor's oldest buffered record
//!   (counted) — explicit drop-oldest load shedding, never an
//!   unbounded queue and never a silent drop.
//!
//! A sensor's queue is a slab: a [`ReadingArena`] whose live records
//! start at a head index. An admission copies its slice onto the end (a
//! straggler is spliced in); a release lends the slice to its consumer
//! and steps the head. A slab compacts once its dead front outgrows its
//! live part, and then keeps room for at most `max(`[`RETAINED_VALUES`]`,
//! 2 × live values)` values, so a drained burst of 65 535-value readings
//! pins nothing. Room is never snapshotted.
//!
//! [`ReorderBuffer::offer_run`] releases between a run's readings what
//! each one freed, so a run is its readings offered one at a time with
//! a drain after each. Releasing only at the end would shed, at
//! capacity, a record the drain had released, and count a repeat of a
//! released slot as a duplicate instead of late. `offer`, `drain_ready`
//! and `flush` are owned-record adapters.

use crate::frame::ReadingArena;
use sentinet_sim::{RawRecord, SensorId, Timestamp};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Values a compacted slab keeps room for beyond twice its live ones.
pub const RETAINED_VALUES: usize = 1024;
/// Dead records a slab carries before it may compact.
const COMPACT_MIN: usize = 32;

/// Reorder buffer tuning.
#[derive(Debug, Clone)]
pub struct ReorderConfig {
    /// How far behind the newest admitted time a record may arrive and
    /// still be re-sequenced.
    pub watermark_delay: Timestamp,
    /// Buffered-record cap per sensor; overflow sheds oldest.
    pub per_sensor_capacity: usize,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        Self {
            watermark_delay: 1800,
            per_sensor_capacity: 64,
        }
    }
}

/// What happened to one offered record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Buffered (possibly shedding an older record to make room).
    Admitted,
    /// Dropped: behind the watermark or its sensor's released history.
    Late,
    /// Dropped: its `(time, sensor)` slot is already buffered.
    Duplicate,
}

/// Transport-layer drop accounting, merged into the ingest report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Same-slot duplicates dropped (first arrival kept).
    pub duplicates: usize,
    /// Records dropped as behind the watermark.
    pub late: usize,
    /// Records shed oldest-first under per-sensor overflow.
    pub shed: usize,
}

/// One sensor's buffered records, oldest first from `head`, with
/// strictly increasing times (a same-slot arrival is a duplicate,
/// never a second entry).
#[derive(Debug, Default)]
struct SensorQueue {
    sensor: SensorId,
    slab: ReadingArena,
    head: usize,
    last_released: Option<Timestamp>,
}

impl SensorQueue {
    fn live(&self) -> &[(Timestamp, usize)] {
        &self.slab.marks[self.head..]
    }

    fn front_time(&self) -> Option<Timestamp> {
        self.live().first().map(|&(time, _)| time)
    }

    /// Where a record at `time` belongs among the live records:
    /// `Err(position)` to insert at, `Ok(position)` of the record
    /// already holding that slot. An in-order arrival lands past the
    /// back without a search.
    fn position(&self, time: Timestamp) -> Result<usize, usize> {
        let live = self.live();
        match live.last() {
            Some(&(back, _)) if back >= time => live.binary_search_by_key(&time, |&(t, _)| t),
            _ => Err(live.len()),
        }
    }

    /// Copies a record in at live `position`: onto the slab's end, or
    /// spliced in front of the records it precedes.
    fn insert(&mut self, position: usize, time: Timestamp, values: &[f64]) {
        let (at, slab) = (self.head + position, &mut self.slab);
        if at == slab.len() {
            return slab.push(time, values);
        }
        let start = slab.start(at);
        slab.values.splice(start..start, values.iter().copied());
        slab.marks.insert(at, (time, start));
        slab.marks[at..]
            .iter_mut()
            .for_each(|(_, end)| *end += values.len());
    }

    /// Drops the oldest record (released or shed); compacts the slab
    /// as the module header states.
    fn pop_front(&mut self) {
        self.head = (self.head + 1).min(self.slab.len());
        let live = self.slab.len() - self.head;
        if live == 0 || self.head >= live.max(COMPACT_MIN) {
            let dead = self.slab.start(self.head);
            self.slab.marks.drain(..self.head);
            self.slab.values.drain(..dead);
            self.slab.marks.iter_mut().for_each(|(_, end)| *end -= dead);
            self.head = 0;
            let room = RETAINED_VALUES.max(2 * self.slab.values.len());
            self.slab.values.shrink_to(room);
        }
    }
}

/// Position of `sensor`'s queue in `queues` (sorted by sensor id), or
/// where to insert one. Arrivals repeat a sensor (a batch) or step to
/// the next one (trace order), and releases walk the sensors in order,
/// so the last hit or its successor usually answers; anything else pays
/// a binary search.
fn locate(queues: &[SensorQueue], cursor: &mut usize, sensor: SensorId) -> Result<usize, usize> {
    for at in [*cursor, *cursor + 1] {
        if queues.get(at).is_some_and(|q| q.sensor == sensor) {
            *cursor = at;
            return Ok(at);
        }
    }
    let found = queues.binary_search_by_key(&sensor, |q| q.sensor);
    if let Ok(at) = found {
        *cursor = at;
    }
    found
}

/// The buffer itself. Feed with [`offer_run`](ReorderBuffer::offer_run),
/// drain with [`release_ready`](ReorderBuffer::release_ready), and
/// [`release_all`](ReorderBuffer::release_all) at end of stream.
///
/// Records wait in one time-ordered slab per sensor; a min-heap of
/// the slabs' fronts yields the global `(time, sensor)` release order.
/// An in-order arrival is an append, a release a head step plus one
/// heap sift, and neither allocates once the slabs have grown to their
/// working size.
#[derive(Debug)]
pub struct ReorderBuffer {
    config: ReorderConfig,
    /// Every sensor ever offered, sorted by sensor id.
    queues: Vec<SensorQueue>,
    /// Last queue [`locate`] landed on.
    cursor: usize,
    /// Queue fronts, earliest `(time, sensor)` on top: at least one
    /// entry per non-empty queue naming its current front. Entries are
    /// never removed when a front changes under them (a shed, or a
    /// straggler landing ahead of it); one that no longer matches its
    /// queue's front is discarded when it surfaces.
    fronts: BinaryHeap<Reverse<(Timestamp, SensorId)>>,
    watermark: Option<Timestamp>,
    stats: ReorderStats,
}

/// Plain-data image of a [`ReorderBuffer`], for checkpointing the
/// transport layer alongside the pipeline it feeds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReorderSnapshot {
    /// Buffered records keyed `(time, sensor)`, in release order.
    pub buffer: ReadingArena<(Timestamp, SensorId)>,
    /// Per-sensor last released timestamp.
    pub last_released: Vec<(SensorId, Timestamp)>,
    /// The release watermark, if any record has been admitted.
    pub watermark: Option<Timestamp>,
    /// Drop accounting so far.
    pub stats: ReorderStats,
}

impl ReorderBuffer {
    /// An empty buffer.
    pub fn new(config: ReorderConfig) -> Self {
        Self {
            config,
            queues: Vec::new(),
            cursor: 0,
            fronts: BinaryHeap::new(),
            watermark: None,
            stats: ReorderStats::default(),
        }
    }

    /// The current release watermark, if any record has been admitted.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Drop accounting so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// Room each sensor's slab holds for values, live or not.
    pub fn retained_values(&self) -> impl Iterator<Item = usize> + '_ {
        self.queues.iter().map(|q| q.slab.values.capacity())
    }

    /// Offers `sensor`'s `run` in arrival order, telling `outcome` what
    /// became of each reading and handing `release`, before each
    /// reading after the first, whatever the one before freed. Follow
    /// it with [`release_ready`](Self::release_ready) for what the last
    /// one freed; the module header says why releases interleave.
    pub fn offer_run<'v>(
        &mut self,
        sensor: SensorId,
        run: impl IntoIterator<Item = (Timestamp, &'v [f64])>,
        mut outcome: impl FnMut(Timestamp, AdmitOutcome),
        mut release: impl FnMut(Timestamp, SensorId, &[f64]),
    ) {
        let at = self.queue_of(sensor);
        for (i, (time, values)) in run.into_iter().enumerate() {
            if i > 0 {
                self.release_ready(&mut release);
            }
            outcome(time, self.admit(at, time, values));
        }
    }

    /// Hands `release` every buffered record at or below the
    /// watermark, in `(time, sensor)` order, its values borrowed from
    /// the slab.
    pub fn release_ready(&mut self, release: impl FnMut(Timestamp, SensorId, &[f64])) {
        if let Some(watermark) = self.watermark {
            self.release_through(watermark, release);
        }
    }

    /// End of stream: hands `release` everything still buffered, in
    /// order.
    pub fn release_all(&mut self, release: impl FnMut(Timestamp, SensorId, &[f64])) {
        self.release_through(Timestamp::MAX, release);
    }

    /// [`offer_run`](Self::offer_run) of one owned record.
    pub fn offer(&mut self, record: RawRecord) -> AdmitOutcome {
        let mut admitted = AdmitOutcome::Late;
        let run = [(record.time, record.values.as_slice())];
        self.offer_run(record.sensor, run, |_, o| admitted = o, |_, _, _| {});
        admitted
    }

    /// [`release_ready`](Self::release_ready) into owned records.
    pub fn drain_ready(&mut self, out: &mut Vec<RawRecord>) {
        self.release_ready(|time, sensor, values| out.push(owned(time, sensor, values)));
    }

    /// [`release_all`](Self::release_all) into owned records.
    pub fn flush(&mut self, out: &mut Vec<RawRecord>) {
        self.release_all(|time, sensor, values| out.push(owned(time, sensor, values)));
    }

    /// Captures the buffer's contents and accounting for checkpointing:
    /// the slabs' live records in release order, copied flat.
    pub fn snapshot(&self) -> ReorderSnapshot {
        let live = self.queues.iter().map(|q| q.live().len()).sum();
        let mut buffer = Vec::with_capacity(live);
        for q in &self.queues {
            let records = q.slab.range(q.head..q.slab.len());
            buffer.extend(records.map(|(time, values)| ((time, q.sensor), values)));
        }
        // One sorted run per slab: the stable sort merges runs.
        buffer.sort_by_key(|&(key, _)| key);
        let mut flat = ReadingArena::default();
        flat.reserve(live, buffer.iter().map(|(_, values)| values.len()).sum());
        flat.extend(buffer);
        ReorderSnapshot {
            buffer: flat,
            last_released: self
                .queues
                .iter()
                .filter_map(|q| q.last_released.map(|t| (q.sensor, t)))
                .collect(),
            watermark: self.watermark,
            stats: self.stats,
        }
    }

    /// Rebuilds a buffer from a snapshot taken under the same config;
    /// admit/release decisions continue exactly as the captured
    /// instance's would. The parts are untrusted: a record that cannot
    /// stay is dropped, counted, by the rule an offer would have used —
    /// late at or behind its sensor's release mark (the newest, if
    /// marked twice), duplicate in a taken slot, shed over capacity.
    pub fn from_snapshot(config: ReorderConfig, snapshot: ReorderSnapshot) -> Self {
        let mut restored = Self::new(config);
        restored.watermark = snapshot.watermark;
        restored.stats = snapshot.stats;
        for (sensor, time) in snapshot.last_released {
            let at = restored.queue_of(sensor);
            let mark = &mut restored.queues[at].last_released;
            *mark = (*mark).max(Some(time));
        }
        for ((time, sensor), values) in snapshot.buffer.iter() {
            let at = restored.queue_of(sensor);
            let queue = &mut restored.queues[at];
            if queue.last_released.is_some_and(|released| time <= released) {
                restored.stats.late += 1;
                continue;
            }
            match queue.position(time) {
                Err(position) => queue.insert(position, time, values),
                Ok(_) => restored.stats.duplicates += 1,
            }
        }
        // A live queue holds its capacity — or one record, at zero.
        let capacity = restored.config.per_sensor_capacity.max(1);
        for queue in &mut restored.queues {
            let over = queue.live().len().saturating_sub(capacity);
            (0..over).for_each(|_| queue.pop_front());
            restored.stats.shed += over;
        }
        restored.rebuild_fronts();
        restored
    }

    /// Offers one reading to queue `at`.
    fn admit(&mut self, at: usize, time: Timestamp, values: &[f64]) -> AdmitOutcome {
        if self.watermark.is_some_and(|w| time < w) {
            self.stats.late += 1;
            return AdmitOutcome::Late;
        }
        let queue = &mut self.queues[at];
        if queue.last_released.is_some_and(|released| time <= released) {
            self.stats.late += 1;
            return AdmitOutcome::Late;
        }
        let Err(mut position) = queue.position(time) else {
            self.stats.duplicates += 1;
            return AdmitOutcome::Duplicate;
        };
        let front_before = queue.front_time();
        if front_before.is_some() && queue.live().len() >= self.config.per_sensor_capacity {
            // Shed this sensor's oldest buffered record to make room.
            queue.pop_front();
            self.stats.shed += 1;
            position = position.saturating_sub(1);
        }
        queue.insert(position, time, values);
        if queue.front_time() != front_before {
            self.note_front(at);
        }

        let horizon = time.saturating_sub(self.config.watermark_delay);
        if self.watermark.is_none_or(|w| horizon > w) {
            self.watermark = Some(horizon);
        }
        AdmitOutcome::Admitted
    }

    /// Position of `sensor`'s queue, created empty on first sight.
    fn queue_of(&mut self, sensor: SensorId) -> usize {
        match locate(&self.queues, &mut self.cursor, sensor) {
            Ok(at) => at,
            Err(at) => {
                let queue = SensorQueue {
                    sensor,
                    ..SensorQueue::default()
                };
                self.queues.insert(at, queue);
                self.cursor = at;
                at
            }
        }
    }

    /// Records that queue `at` has a new front. The entry for its old
    /// front stays behind as a stale one; they are bounded by
    /// rebuilding the heap once it outgrows the queues it indexes (a
    /// buffer that sheds forever under a watermark that never moves
    /// would otherwise grow it without limit).
    fn note_front(&mut self, at: usize) {
        let queue = &self.queues[at];
        if let Some(time) = queue.front_time() {
            self.fronts.push(Reverse((time, queue.sensor)));
        }
        if self.fronts.len() > 2 * self.queues.len() + 16 {
            self.rebuild_fronts();
        }
    }

    fn rebuild_fronts(&mut self) {
        self.fronts.clear();
        self.fronts.extend(
            self.queues
                .iter()
                .filter_map(|q| q.front_time().map(|time| Reverse((time, q.sensor)))),
        );
    }

    /// Releases, earliest first, every buffered record whose time is
    /// at or below `limit` (`Timestamp::MAX`: end of stream).
    fn release_through(
        &mut self,
        limit: Timestamp,
        mut release: impl FnMut(Timestamp, SensorId, &[f64]),
    ) {
        while let Some(mut top) = self.fronts.peek_mut() {
            let Reverse((time, sensor)) = *top;
            if time > limit {
                break;
            }
            let live = locate(&self.queues, &mut self.cursor, sensor)
                .ok()
                .map(|at| &mut self.queues[at])
                .filter(|q| q.front_time() == Some(time));
            let Some(queue) = live else {
                PeekMut::pop(top);
                continue;
            };
            let (start, end) = (queue.slab.start(queue.head), queue.live()[0].1);
            release(time, sensor, &queue.slab.values[start..end]);
            queue.pop_front();
            queue.last_released = Some(time);
            // The successor takes the released front's place in one
            // sift instead of a pop and a push.
            match queue.front_time() {
                Some(next) => *top = Reverse((next, sensor)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
    }
}

/// A released record as an owned one, for the adapters.
fn owned(time: Timestamp, sensor: SensorId, values: &[f64]) -> RawRecord {
    RawRecord {
        time,
        sensor,
        values: values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn raw(time: u64, sensor: u16, v: f64) -> RawRecord {
        RawRecord {
            time,
            sensor: SensorId(sensor),
            values: vec![v],
        }
    }

    fn cfg(delay: u64, cap: usize) -> ReorderConfig {
        ReorderConfig {
            watermark_delay: delay,
            per_sensor_capacity: cap,
        }
    }

    #[test]
    fn reordered_within_watermark_comes_out_sorted() {
        let mut rb = ReorderBuffer::new(cfg(1000, 16));
        for t in [600u64, 300, 900, 1200, 1500] {
            assert_eq!(rb.offer(raw(t, 1, t as f64)), AdmitOutcome::Admitted);
        }
        let mut out = Vec::new();
        rb.flush(&mut out);
        let times: Vec<u64> = out.iter().map(|r| r.time).collect();
        assert_eq!(times, vec![300, 600, 900, 1200, 1500]);
        assert_eq!(rb.stats(), ReorderStats::default());
    }

    #[test]
    fn watermark_releases_progressively() {
        let mut rb = ReorderBuffer::new(cfg(600, 16));
        rb.offer(raw(300, 1, 1.0));
        rb.offer(raw(600, 1, 2.0));
        let mut out = Vec::new();
        rb.drain_ready(&mut out);
        assert!(out.is_empty(), "nothing behind watermark yet");
        rb.offer(raw(1200, 1, 3.0)); // watermark now 600
        rb.drain_ready(&mut out);
        assert_eq!(
            out.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![300, 600]
        );
    }

    #[test]
    fn behind_watermark_is_late() {
        let mut rb = ReorderBuffer::new(cfg(300, 16));
        rb.offer(raw(3000, 1, 1.0)); // watermark 2700
        assert_eq!(rb.offer(raw(600, 1, 2.0)), AdmitOutcome::Late);
        assert_eq!(rb.stats().late, 1);
    }

    #[test]
    fn same_slot_is_duplicate_first_wins() {
        let mut rb = ReorderBuffer::new(cfg(1000, 16));
        rb.offer(raw(300, 1, 1.0));
        assert_eq!(rb.offer(raw(300, 1, 99.0)), AdmitOutcome::Duplicate);
        let mut out = Vec::new();
        rb.flush(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, vec![1.0]);
        assert_eq!(rb.stats().duplicates, 1);
    }

    #[test]
    fn overflow_sheds_oldest_per_sensor() {
        let mut rb = ReorderBuffer::new(cfg(u64::MAX, 3));
        for t in [300u64, 600, 900, 1200] {
            rb.offer(raw(t, 1, t as f64));
        }
        assert_eq!(rb.stats().shed, 1);
        let mut out = Vec::new();
        rb.flush(&mut out);
        assert_eq!(
            out.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![600, 900, 1200],
            "oldest record shed"
        );
    }

    #[test]
    fn reorder_snapshot_round_trips_and_continues_identically() {
        let mut rb = ReorderBuffer::new(cfg(600, 8));
        let mut out = Vec::new();
        for (t, s) in [(600u64, 1u16), (300, 2), (900, 1), (100, 2)] {
            rb.offer(raw(t, s, t as f64));
            rb.drain_ready(&mut out);
        }
        let snap = rb.snapshot();
        assert!(snap.stats.late > 0, "the straggler at t=100 was dropped");
        let mut restored = ReorderBuffer::from_snapshot(cfg(600, 8), snap.clone());
        assert_eq!(restored.snapshot(), snap);
        // Both continue identically from here.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (t, s) in [(1500u64, 1u16), (1200, 2), (2400, 1)] {
            assert_eq!(
                rb.offer(raw(t, s, t as f64)),
                restored.offer(raw(t, s, t as f64))
            );
            rb.drain_ready(&mut a);
            restored.drain_ready(&mut b);
        }
        rb.flush(&mut a);
        restored.flush(&mut b);
        assert_eq!(a, b);
        assert_eq!(rb.stats(), restored.stats());
    }

    /// What `from_snapshot` used to take on trust (ROADMAP 6c): a
    /// record behind its sensor's release mark was released after it,
    /// stepping the sensor's stream backwards and re-opening every slot
    /// in between; a slot listed twice silently lost one record; a
    /// queue over capacity stayed over it; a sensor marked twice kept
    /// whichever mark came last.
    #[test]
    fn a_restored_buffer_drops_what_an_offer_would_have_and_counts_it() {
        let snapshot = ReorderSnapshot {
            buffer: [
                (1500, SensorId(1), vec![5.0]),
                (900, SensorId(1), vec![1.0]),  // behind the mark
                (1200, SensorId(1), vec![2.0]), // at the mark
                (1800, SensorId(2), vec![3.0]),
                (1800, SensorId(2), vec![99.0]), // the slot again
                (2100, SensorId(3), vec![6.0]),
                (2400, SensorId(3), vec![7.0]),
                (1900, SensorId(3), vec![8.0]), // three of a capacity of two
            ]
            .iter()
            .map(|(t, s, v)| ((*t, *s), v.as_slice()))
            .collect(),
            last_released: vec![(SensorId(1), 1200), (SensorId(1), 600)],
            watermark: Some(1000),
            stats: ReorderStats {
                duplicates: 10,
                late: 20,
                shed: 30,
            },
        };
        let mut rb = ReorderBuffer::from_snapshot(cfg(600, 2), snapshot);
        assert_eq!(
            rb.stats(),
            ReorderStats {
                duplicates: 11,
                late: 22,
                shed: 31,
            }
        );
        assert_eq!(
            rb.offer(raw(1000, 1, 0.0)),
            AdmitOutcome::Late,
            "the newest mark holds"
        );
        let mut out = Vec::new();
        rb.flush(&mut out);
        let released: Vec<(u64, u16, f64)> = out
            .iter()
            .map(|r| (r.time, r.sensor.0, r.values[0]))
            .collect();
        assert_eq!(
            released,
            vec![
                (1500, 1, 5.0),
                (1800, 2, 3.0),
                (2100, 3, 6.0),
                (2400, 3, 7.0)
            ],
            "in order, first arrivals, newest kept"
        );
    }

    /// A run releases between its readings what each one freed: the
    /// same outcomes and the same stream as one offer and one drain a
    /// reading — here the watermark passes the run's own head.
    #[test]
    fn a_run_releases_between_its_readings() {
        let run: Vec<(u64, Vec<f64>)> = [300u64, 600, 600, 900, 1200, 600]
            .iter()
            .map(|&t| (t, vec![t as f64, -(t as f64)]))
            .collect();
        let mut one = ReorderBuffer::new(cfg(300, 2));
        let mut expect = Vec::new();
        let outcomes: Vec<AdmitOutcome> = run
            .iter()
            .map(|(t, v)| {
                let got = one.offer(RawRecord {
                    time: *t,
                    sensor: SensorId(4),
                    values: v.clone(),
                });
                one.drain_ready(&mut expect);
                got
            })
            .collect();
        let mut by_run = ReorderBuffer::new(cfg(300, 2));
        let (mut seen, mut got) = (Vec::new(), Vec::new());
        let mut release = |time, sensor, values: &[f64]| got.push(owned(time, sensor, values));
        let slices = run.iter().map(|(t, v)| (*t, v.as_slice()));
        by_run.offer_run(SensorId(4), slices, |_, o| seen.push(o), &mut release);
        by_run.release_ready(&mut release);
        assert_eq!(seen, outcomes);
        assert_eq!(got, expect);
        assert_eq!(by_run.snapshot(), one.snapshot());
        assert_eq!(
            outcomes[5],
            AdmitOutcome::Late,
            "600 was released before it came again"
        );
    }

    /// A slab takes stragglers of any width where they belong and
    /// gives its room back once a wide burst has drained.
    #[test]
    fn a_slab_splices_stragglers_and_sheds_its_room() {
        let mut rb = ReorderBuffer::new(cfg(u64::MAX, 1_000));
        for (t, width) in [(900u64, 1), (300, 3), (1500, 0), (600, 2), (1200, 1)] {
            let values: Vec<f64> = (0..width).map(|i| (t + i) as f64).collect();
            let run = [(t, values.as_slice())];
            rb.offer_run(
                SensorId(1),
                run,
                |_, o| assert_eq!(o, AdmitOutcome::Admitted),
                |_, _, _| {},
            );
        }
        let mut out = Vec::new();
        rb.flush(&mut out);
        let released: Vec<(u64, Vec<f64>)> = out.into_iter().map(|r| (r.time, r.values)).collect();
        assert_eq!(
            released,
            vec![
                (300, vec![300.0, 301.0, 302.0]),
                (600, vec![600.0, 601.0]),
                (900, vec![900.0]),
                (1200, vec![1200.0]),
                (1500, vec![]),
            ]
        );
        let wide = vec![1.0; usize::from(u16::MAX)];
        for i in 0..40u64 {
            rb.offer_run(
                SensorId(1),
                [(2000 + i, wide.as_slice())],
                |_, _| {},
                |_, _, _| {},
            );
        }
        assert!(rb.retained_values().max() > Some(RETAINED_VALUES));
        rb.release_all(|_, _, _| {});
        assert!(rb.retained_values().all(|room| room <= RETAINED_VALUES));
    }

    #[test]
    fn released_stream_is_per_sensor_strictly_increasing() {
        let mut rb = ReorderBuffer::new(cfg(600, 8));
        let mut out = Vec::new();
        // Interleave two sensors with jitter and a straggler.
        for (t, s) in [
            (600u64, 1u16),
            (300, 2),
            (900, 1),
            (600, 2),
            (1500, 1),
            (1200, 2),
            (900, 2),
            (2400, 1),
        ] {
            rb.offer(raw(t, s, 1.0));
            rb.drain_ready(&mut out);
        }
        rb.flush(&mut out);
        let mut last: BTreeMap<SensorId, u64> = BTreeMap::new();
        let mut last_global = 0u64;
        for r in &out {
            assert!(r.time >= last_global, "global order violated");
            last_global = r.time;
            if let Some(&prev) = last.get(&r.sensor) {
                assert!(r.time > prev, "per-sensor order violated");
            }
            last.insert(r.sensor, r.time);
        }
    }
}
