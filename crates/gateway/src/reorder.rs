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
//! An admitted slice ([`ReorderBuffer::offer_at`]) is copied into a
//! vector recycled from an earlier release; a released record takes its
//! vector along and its consumer hands it back ([`ReorderBuffer::recycle`])
//! or keeps it. What that can pin is bounded: buffered + spare vectors
//! never exceed the peak number buffered, and no spare has room for more
//! than [`MAX_SPARE_VALUES`] (a hostile 65 535-value reading's half
//! megabyte is freed when it leaves). Spares are not state: never snapshotted.

use sentinet_sim::{RawRecord, SensorId, Timestamp};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// The most values a vector kept for reuse may have room for.
pub const MAX_SPARE_VALUES: usize = 64;

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

/// One sensor's buffered records, oldest first, with strictly
/// increasing times (a same-slot arrival is a duplicate, never a second
/// entry).
#[derive(Debug)]
struct SensorQueue {
    sensor: SensorId,
    records: VecDeque<(Timestamp, Vec<f64>)>,
    last_released: Option<Timestamp>,
}

impl SensorQueue {
    fn front_time(&self) -> Option<Timestamp> {
        self.records.front().map(|(time, _)| *time)
    }

    /// Where a record at `time` belongs: `Err(position)` to insert at,
    /// `Ok(position)` of the record already holding that slot. An
    /// in-order arrival lands past the back without a search.
    fn position(&self, time: Timestamp) -> Result<usize, usize> {
        match self.records.back() {
            Some((back, _)) if *back >= time => {
                self.records.binary_search_by_key(&time, |(t, _)| *t)
            }
            _ => Err(self.records.len()),
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

/// The buffer itself. Feed with [`offer`](ReorderBuffer::offer), drain
/// with [`drain_ready`](ReorderBuffer::drain_ready), and
/// [`flush`](ReorderBuffer::flush) at end of stream.
///
/// Records wait in one time-ordered queue per sensor; a min-heap of
/// the queues' fronts yields the global `(time, sensor)` release order.
/// An in-order arrival is a `push_back`, a release is a `pop_front`
/// plus one heap sift, and neither allocates once the queues have
/// grown to their working size and released vectors come back.
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
    /// Records buffered now, and the most that ever were.
    buffered: usize,
    peak: usize,
    /// Emptied vectors of released records, for the next admissions.
    spare: Vec<Vec<f64>>,
}

/// Plain-data image of a [`ReorderBuffer`], for checkpointing the
/// transport layer alongside the pipeline it feeds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReorderSnapshot {
    /// Buffered records as `(time, sensor, values)`, in release order.
    pub buffer: Vec<(Timestamp, SensorId, Vec<f64>)>,
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
            buffered: 0,
            peak: 0,
            spare: Vec::new(),
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

    /// [`ReorderBuffer::offer_at`] on an owned record.
    pub fn offer(&mut self, record: RawRecord) -> AdmitOutcome {
        self.offer_at(record.time, record.sensor, &record.values)
    }

    /// Offers one deduplicated record. On `Admitted` the values are
    /// copied into the buffer; call [`pop_ready`](Self::pop_ready) to
    /// collect whatever the (possibly advanced) watermark now frees.
    pub fn offer_at(&mut self, time: Timestamp, sensor: SensorId, values: &[f64]) -> AdmitOutcome {
        if self.watermark.is_some_and(|w| time < w) {
            self.stats.late += 1;
            return AdmitOutcome::Late;
        }
        let at = self.queue_of(sensor);
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
        if queue.records.len() >= self.config.per_sensor_capacity {
            if let Some((_, oldest)) = queue.records.pop_front() {
                // Shed this sensor's oldest buffered record to make room.
                self.stats.shed += 1;
                position = position.saturating_sub(1);
                self.buffered -= 1;
                self.recycle(oldest);
            }
        }
        let mut kept = self.spare.pop().unwrap_or_default();
        kept.extend_from_slice(values);
        self.buffered += 1;
        self.peak = self.peak.max(self.buffered);
        let queue = &mut self.queues[at];
        queue.records.insert(position, (time, kept));
        if queue.front_time() != front_before {
            self.note_front(at);
        }

        let horizon = time.saturating_sub(self.config.watermark_delay);
        if self.watermark.is_none_or(|w| horizon > w) {
            self.watermark = Some(horizon);
        }
        AdmitOutcome::Admitted
    }

    /// The next buffered record at or below the watermark, in
    /// `(time, sensor)` order; `None` once nothing more is ready.
    pub fn pop_ready(&mut self) -> Option<RawRecord> {
        self.pop_through(self.watermark?)
    }

    /// Takes back a released record's vector for a later admission to
    /// fill — or drops it, past the bound the module header states.
    pub fn recycle(&mut self, mut values: Vec<f64>) {
        if values.capacity() <= MAX_SPARE_VALUES && self.buffered + self.spare.len() < self.peak {
            values.clear();
            self.spare.push(values);
        }
    }

    /// Capacities of the vectors parked for reuse.
    pub fn spare_capacities(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.spare.iter().map(Vec::capacity)
    }

    /// Moves every buffered record at or below the watermark into
    /// `out`, in `(time, sensor)` order.
    pub fn drain_ready(&mut self, out: &mut Vec<RawRecord>) {
        out.extend(std::iter::from_fn(|| self.pop_ready()));
    }

    /// End of stream: releases everything still buffered, in order.
    pub fn flush(&mut self, out: &mut Vec<RawRecord>) {
        out.extend(std::iter::from_fn(|| self.pop_through(Timestamp::MAX)));
    }

    /// Captures the buffer's contents and accounting for checkpointing.
    pub fn snapshot(&self) -> ReorderSnapshot {
        let mut buffer: Vec<(Timestamp, SensorId, Vec<f64>)> = self
            .queues
            .iter()
            .flat_map(|q| q.records.iter().map(|(t, v)| (*t, q.sensor, v.clone())))
            .collect();
        // One sorted run per sensor: the stable sort merges runs.
        buffer.sort_by_key(|(t, s, _)| (*t, *s));
        ReorderSnapshot {
            buffer,
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
        for (time, sensor, values) in snapshot.buffer {
            let at = restored.queue_of(sensor);
            let queue = &mut restored.queues[at];
            if queue.last_released.is_some_and(|released| time <= released) {
                restored.stats.late += 1;
                continue;
            }
            match queue.position(time) {
                Err(position) => queue.records.insert(position, (time, values)),
                Ok(_) => restored.stats.duplicates += 1,
            }
        }
        // A live queue holds its capacity — or one record, at zero.
        let capacity = restored.config.per_sensor_capacity.max(1);
        for queue in &mut restored.queues {
            let over = queue.records.len().saturating_sub(capacity);
            queue.records.drain(..over);
            restored.stats.shed += over;
            restored.buffered += queue.records.len();
        }
        restored.peak = restored.buffered;
        restored.rebuild_fronts();
        restored
    }

    /// Position of `sensor`'s queue, created empty on first sight.
    fn queue_of(&mut self, sensor: SensorId) -> usize {
        match locate(&self.queues, &mut self.cursor, sensor) {
            Ok(at) => at,
            Err(at) => {
                self.queues.insert(
                    at,
                    SensorQueue {
                        sensor,
                        records: VecDeque::new(),
                        last_released: None,
                    },
                );
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

    /// Releases the earliest buffered record if its time is at or
    /// below `limit` (`Timestamp::MAX`: end of stream).
    pub fn pop_through(&mut self, limit: Timestamp) -> Option<RawRecord> {
        while let Some(mut top) = self.fronts.peek_mut() {
            let Reverse((time, sensor)) = *top;
            if time > limit {
                break;
            }
            let live = locate(&self.queues, &mut self.cursor, sensor)
                .ok()
                .map(|at| &mut self.queues[at])
                .filter(|q| q.front_time() == Some(time));
            let Some((values, queue)) = live.and_then(|q| Some((q.records.pop_front()?.1, q)))
            else {
                PeekMut::pop(top);
                continue;
            };
            queue.last_released = Some(time);
            // The successor takes the released front's place in one
            // sift instead of a pop and a push.
            match queue.front_time() {
                Some(next) => *top = Reverse((next, sensor)),
                None => {
                    PeekMut::pop(top);
                }
            }
            self.buffered -= 1;
            return Some(RawRecord {
                time,
                sensor,
                values,
            });
        }
        None
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
            buffer: vec![
                (1500, SensorId(1), vec![5.0]),
                (900, SensorId(1), vec![1.0]),  // behind the mark
                (1200, SensorId(1), vec![2.0]), // at the mark
                (1800, SensorId(2), vec![3.0]),
                (1800, SensorId(2), vec![99.0]), // the slot again
                (2100, SensorId(3), vec![6.0]),
                (2400, SensorId(3), vec![7.0]),
                (1900, SensorId(3), vec![8.0]), // three of a capacity of two
            ],
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

    #[test]
    fn an_admitted_slice_is_copied_into_a_recycled_vector() {
        let mut rb = ReorderBuffer::new(cfg(0, 16));
        assert_eq!(
            rb.offer_at(300, SensorId(1), &[1.0, 2.0]),
            AdmitOutcome::Admitted
        );
        let first = rb.pop_ready().expect("at the watermark");
        assert_eq!(
            (first.time, first.values.as_slice()),
            (300, &[1.0, 2.0][..])
        );
        assert!(rb.pop_ready().is_none());
        let parked = first.values.as_ptr();
        rb.recycle(first.values);
        assert_eq!(rb.spare_capacities().len(), 1);
        // Refused records copy nothing and take no spare …
        assert_eq!(rb.offer_at(300, SensorId(1), &[9.0]), AdmitOutcome::Late);
        assert_eq!(rb.spare_capacities().len(), 1);
        // … the next admitted one reuses the vector.
        assert_eq!(
            rb.offer_at(600, SensorId(1), &[3.0, 4.0]),
            AdmitOutcome::Admitted
        );
        assert_eq!(rb.spare_capacities().len(), 0);
        let second = rb.pop_through(u64::MAX).expect("buffered");
        assert_eq!(second.values, vec![3.0, 4.0]);
        assert_eq!(second.values.as_ptr(), parked, "no new allocation");
        // A shed record's vector is kept for the record that shed it.
        let mut rb = ReorderBuffer::new(cfg(u64::MAX, 1));
        rb.offer_at(300, SensorId(1), &[1.0]);
        rb.offer_at(600, SensorId(1), &[2.0]);
        assert_eq!(rb.stats().shed, 1);
        assert_eq!(rb.pop_through(u64::MAX).map(|r| r.values), Some(vec![2.0]));
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
