//! Observation windowing (paper Eq. 1) and per-window state
//! identification (Eqs. 2–4).
//!
//! The collector groups delivered readings into windows of `w` sampling
//! instants. Within a window, each sensor contributes up to `w` readings
//! (GDI: `w = 12` five-minute samples ⇒ one-hour windows holding ≈ 100
//! usable readings of 120 sent — matching the paper's accounting).
//!
//! Per-window quantities:
//!
//! - the **observable state** `o_i` — the model state nearest the mean
//!   of *all* delivered readings (Eq. 2);
//! - per-sensor **state labels** `l_j` — each sensor's window-mean
//!   reading mapped to its nearest model state (Eq. 3, applied to the
//!   sensor's representative so a faulty sensor casts one vote, not
//!   `w`);
//! - the **correct state** `c_i` — the label shared by the largest
//!   group of sensors (Eq. 4), valid while a majority of sensors is
//!   uncompromised.
//!
//! Storage is flat: a window is a `Vec` of per-sensor sample buffers
//! sorted by sensor id (memory follows the sensors seen, not the
//! largest id), each buffer one row-major `f64` run; the [`Windower`]
//! recycles completed windows; and Eqs. 2–4 run out of a caller-owned
//! [`WindowScratch`] ([`ObservationWindow::observable_with`],
//! [`identify_states_into`]). What that guarantees in steady state —
//! every sensor already seen, buffers warm: a reading pushed into a
//! recycled window allocates nothing, and the Eqs. 2–4 pass over a
//! completed window allocates nothing. Completing a window costs the
//! one-element `Vec` [`Windower::push`] returns it in, whatever the
//! sensor count. `tests/steady_state_alloc.rs` counts allocator calls
//! to keep this true. The map-typed functions ([`identify_states`],
//! [`ObservationWindow::sensor_means`]) wrap the same kernels and
//! allocate their results.

use crate::checkpoint::{CheckpointError, WindowerSnapshot};
use sentinet_cluster::ModelStates;
use sentinet_sim::{SensorId, Timestamp};
use std::collections::BTreeMap;

/// One sensor's delivered readings within a window, stored flat
/// (`len() × dims()` values) so a recycled window refills without
/// per-reading allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensorSamples {
    dims: usize,
    data: Vec<f64>,
}

impl SensorSamples {
    /// Number of readings stored.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// True when the sensor delivered nothing this window.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Attribute dimensionality (0 until the first push).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Appends one reading's attribute values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or disagrees with the dimensionality
    /// of readings already stored.
    pub fn push(&mut self, values: &[f64]) {
        assert!(
            !values.is_empty(),
            "readings must have at least one attribute"
        );
        if self.data.is_empty() {
            self.dims = values.len();
        }
        assert_eq!(values.len(), self.dims, "inconsistent reading dimensions");
        self.data.extend_from_slice(values);
    }

    /// Iterates the stored readings as value slices, in arrival order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dims.max(1))
    }

    /// All values, flat (`len() × dims()`, row-major by arrival order).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Appends the mean of the stored readings (`dims()` values, the
    /// sensor's Eq. 3 representative) to `out`.
    fn mean_into(&self, out: &mut Vec<f64>) {
        let at = out.len();
        out.resize(at + self.dims, 0.0);
        let mean = &mut out[at..];
        for values in self.iter() {
            for (acc, &v) in mean.iter_mut().zip(values) {
                *acc += v;
            }
        }
        let n = self.len() as f64;
        mean.iter_mut().for_each(|x| *x /= n);
    }

    /// Clears stored readings, retaining capacity for reuse.
    fn clear(&mut self) {
        self.data.clear();
    }
}

/// All delivered readings of one observation window, grouped by sensor.
///
/// Equality compares the delivered readings: buffers a recycled window
/// keeps for sensors that have since gone silent do not count.
#[derive(Debug, Clone, Default)]
pub struct ObservationWindow {
    /// Window index `i` (0-based).
    pub index: u64,
    /// Start time of the window (inclusive).
    pub start: Timestamp,
    /// Delivered samples per sensor, sorted by ascending sensor id.
    /// Recycled windows keep per-sensor buffers around (cleared), so
    /// consumers must skip empty entries —
    /// [`ObservationWindow::sensors`] does.
    readings: Vec<(SensorId, SensorSamples)>,
    /// Entry the last push landed in. Traces arrive `(time, sensor)`
    /// sorted, so the next reading belongs to this entry's successor
    /// (or to the first entry, at the next sampling instant).
    cursor: usize,
}

/// Entries [`ObservationWindow::push`] scans from its cursor before it
/// falls back to a binary search: the cursor's own (a sensor repeating),
/// its successor (the in-order case), and two more for lost packets.
const NEAR: usize = 4;

impl PartialEq for ObservationWindow {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.start == other.start && self.sensors().eq(other.sensors())
    }
}

impl ObservationWindow {
    /// Appends one reading's values for `sensor`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or disagrees with the sensor's prior
    /// readings in this window.
    pub fn push(&mut self, sensor: SensorId, values: &[f64]) {
        let entry = self.entry(sensor);
        self.readings[entry].1.push(values);
    }

    /// Position of `sensor`'s entry, created if the window has never
    /// seen the sensor. An in-order stream lands on the cursor or a
    /// few entries after it (a lost packet skips one), or back at the
    /// front with the next sampling instant; a scan of [`NEAR`] entries
    /// from there finds it. Anything else pays a binary search.
    fn entry(&mut self, sensor: SensorId) -> usize {
        let from = match self.readings.get(self.cursor) {
            Some((id, _)) if *id <= sensor => self.cursor,
            _ => 0,
        };
        let near = self.readings[from..]
            .iter()
            .take(NEAR)
            .position(|(id, _)| *id >= sensor)
            .map(|step| from + step);
        self.cursor = match near {
            Some(at) if self.readings[at].0 == sensor => at,
            _ => match self.readings.binary_search_by_key(&sensor, |(id, _)| *id) {
                Ok(at) => at,
                Err(at) => {
                    self.readings.insert(at, (sensor, SensorSamples::default()));
                    at
                }
            },
        };
        self.cursor
    }

    /// Per-sensor samples with at least one delivered reading, in
    /// ascending sensor order.
    pub fn sensors(&self) -> impl Iterator<Item = (SensorId, &SensorSamples)> {
        self.readings
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(id, s)| (*id, s))
    }

    /// Total delivered readings in the window.
    pub fn num_readings(&self) -> usize {
        self.readings.iter().map(|(_, s)| s.len()).sum()
    }

    /// True when no sensor delivered anything.
    pub fn is_empty(&self) -> bool {
        self.readings.iter().all(|(_, s)| s.is_empty())
    }

    /// Clears all samples (keeping buffers) so the window can be
    /// refilled without allocating.
    fn reset(&mut self) {
        for (_, s) in &mut self.readings {
            s.clear();
        }
    }

    /// Mean of all delivered readings (the Eq. 2 aggregate), `None` for
    /// an empty window.
    pub fn overall_mean(&self) -> Option<Vec<f64>> {
        let mut sum: Option<Vec<f64>> = None;
        let mut count = 0.0;
        for (_, samples) in self.sensors() {
            for values in samples.iter() {
                let s = sum.get_or_insert_with(|| vec![0.0; values.len()]);
                for (acc, &v) in s.iter_mut().zip(values) {
                    *acc += v;
                }
                count += 1.0;
            }
        }
        sum.map(|mut s| {
            s.iter_mut().for_each(|x| *x /= count);
            s
        })
    }

    /// Robust variant of [`ObservationWindow::overall_mean`]: drops the
    /// `trim` fraction of readings farthest (Euclidean) from the
    /// coordinate-wise median before averaging.
    ///
    /// With `trim = 0` this is exactly the paper's Eq. 2 aggregate. A
    /// positive trim keeps a *single* wildly faulty sensor (≈ 1/K of
    /// the readings) from dragging the observable state off the correct
    /// one, while a coordinated attack on ⅓ of the sensors still
    /// shifts the mean — see `DESIGN.md` for the analysis.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ trim < 0.5`.
    pub fn trimmed_mean(&self, trim: f64) -> Option<Vec<f64>> {
        let mut scratch = WindowScratch::default();
        self.trimmed_mean_with(trim, &mut scratch)
            .map(<[f64]>::to_vec)
    }

    /// Allocation-free [`ObservationWindow::trimmed_mean`]: all
    /// intermediates live in `scratch`, and the returned slice borrows
    /// `scratch.mean`. Bit-for-bit identical to the allocating path:
    /// the selection of [`ObservationWindow::observable_with`], then
    /// its exact finish.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ trim < 0.5`.
    pub fn trimmed_mean_with<'a>(
        &self,
        trim: f64,
        scratch: &'a mut WindowScratch,
    ) -> Option<&'a [f64]> {
        let selected = self.select_kept(trim, scratch)?;
        Some(scratch.exact_mean(selected))
    }

    /// The observable state `o_i` of Eq. 2 as the window pass needs
    /// it: [`Observed::Settled`] when `states` certifies the one slot
    /// every point within the selection's error bound of the exact
    /// trimmed mean is nearest to, none of them far enough to spawn a
    /// state ([`ModelStates::settled`]) — the mean's bits are then
    /// never needed; otherwise [`Observed::Exact`] with the mean
    /// [`ObservationWindow::trimmed_mean_with`] returns, bit for bit.
    /// `None` for an empty window. With warm buffers nothing is
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ trim < 0.5`, or if the readings' dimension
    /// differs from the states'.
    pub fn observable_with<'a>(
        &self,
        trim: f64,
        states: &ModelStates,
        scratch: &'a mut WindowScratch,
    ) -> Option<Observed<'a>> {
        let selected = self.select_kept(trim, scratch)?;
        match states.settled(&scratch.mean, selected.radius) {
            Some(slot) => Some(Observed::Settled(slot)),
            None => Some(Observed::Exact(scratch.exact_mean(selected))),
        }
    }

    /// Eq. 2's selection, O(*n*): flattens the readings into `scratch`,
    /// picks the kept set and leaves its mean, summed in selection
    /// order, in `scratch.mean`. The exact mean sums the same values in
    /// (distance, arrival) order; both are recursive sums, so they
    /// differ by at most 2·γ(keep)·Σ|x| before the division by `keep`
    /// and a rounding each after it (Higham) — the returned radius,
    /// with room to spare. `None` for an empty window.
    fn select_kept(&self, trim: f64, scratch: &mut WindowScratch) -> Option<Selected> {
        assert!((0.0..0.5).contains(&trim), "trim must be in [0, 0.5)");
        // Flatten in canonical order: ascending sensor id, arrival order.
        scratch.flat.clear();
        let mut dims = 0;
        for (_, samples) in self.sensors() {
            if dims == 0 {
                dims = samples.dims();
            }
            scratch.flat.extend_from_slice(samples.as_flat());
        }
        if scratch.flat.is_empty() {
            return None;
        }
        let n = scratch.flat.len() / dims;
        scratch.mean.clear();
        scratch.mean.resize(dims, 0.0);
        // sentinet-allow(float-eq): exact zero selects the untrimmed
        // fast path; any positive trim takes the median path below.
        if trim == 0.0 {
            // Summed in canonical order: this is the exact mean.
            for point in scratch.flat.chunks_exact(dims) {
                for (m, &v) in scratch.mean.iter_mut().zip(point) {
                    *m += v;
                }
            }
            for m in &mut scratch.mean {
                *m /= n as f64;
            }
            return Some(Selected {
                radius: 0.0,
                unsorted: 0,
            });
        }
        // Coordinate-wise median: selection finds the same element a
        // full sort would place at index len/2.
        scratch.median.clear();
        for d in 0..dims {
            scratch.column.clear();
            scratch
                .column
                .extend(scratch.flat.chunks_exact(dims).map(|point| point[d]));
            let mid = scratch.column.len() / 2;
            let (_, &mut med, _) = scratch
                .column
                .select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
            scratch.median.push(med);
        }
        // Distance from the median per reading; keep the nearest `keep`.
        // Tie-breaking on the arrival index reproduces the stable order
        // a full stable sort over distances would yield.
        scratch.keys.clear();
        for (i, point) in scratch.flat.chunks_exact(dims).enumerate() {
            let d2: f64 = point
                .iter()
                .zip(&scratch.median)
                .map(|(x, m)| (x - m) * (x - m))
                .sum();
            scratch.keys.push(order_key(d2.sqrt(), i as u32));
        }
        let keep = ((n as f64) * (1.0 - trim)).ceil().max(1.0) as usize;
        let keep = keep.min(n);
        if keep < n {
            scratch.keys.select_nth_unstable(keep);
        }
        scratch.spread.clear();
        scratch.spread.resize(dims, 0.0);
        for &key in &scratch.keys[..keep] {
            let i = key as u32 as usize;
            let point = &scratch.flat[i * dims..(i + 1) * dims];
            let sums = scratch.mean.iter_mut().zip(scratch.spread.iter_mut());
            for ((m, spread), &v) in sums.zip(point) {
                *m += v;
                *spread += v.abs();
            }
        }
        let count = keep as f64;
        for m in &mut scratch.mean {
            *m /= count;
        }
        // The spreads' sum bounds the Euclidean norm of the
        // per-attribute errors. Twice the bound, doubled first so that a
        // spread past `f64::MAX / 2` (where a sum may overflow) makes
        // the radius infinite; the last term covers a subnormal quotient.
        let spread: f64 = scratch.spread.iter().sum();
        let radius =
            2.0 * spread * (count + 2.0) * f64::EPSILON / count + dims as f64 * f64::MIN_POSITIVE;
        Some(Selected {
            radius,
            unsorted: keep,
        })
    }

    /// Per-sensor window-mean readings (each sensor's representative).
    pub fn sensor_means(&self) -> BTreeMap<SensorId, Vec<f64>> {
        self.sensors()
            .map(|(id, samples)| {
                let mut mean = Vec::new();
                samples.mean_into(&mut mean);
                (id, mean)
            })
            .collect()
    }
}

/// The place of a reading in the (distance, arrival) order as one
/// integer: comparing two keys is `a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))`
/// on the `(distance, arrival)` pairs, for every `f64` there is. The
/// high 64 bits are the distance's bit pattern mapped so that unsigned
/// order is [`f64::total_cmp`] order (sign bit flipped for positives,
/// every bit for negatives); the arrival index sits in the low 32.
#[inline]
fn order_key(distance: f64, arrival: u32) -> u128 {
    let bits = distance.to_bits();
    let flip = (((bits as i64) >> 63) as u64) | (1 << 63);
    (u128::from(bits ^ flip) << 32) | u128::from(arrival)
}

/// Eq. 2 as the window pass consumes it
/// ([`ObservationWindow::observable_with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observed<'a> {
    /// The observable state, certified for every point within the
    /// error bound of the exact trimmed mean; no state spawns there.
    Settled(usize),
    /// The exact trimmed mean, for a window the bound did not settle:
    /// a state may spawn at it, two states nearly tie, or a value is
    /// not finite.
    Exact(&'a [f64]),
}

/// What Eq. 2's selection leaves for the exact finish: the distance
/// from `scratch.mean` within which the exact mean lies, and how many
/// kept keys the exact mean still has to sort and sum (0: the mean is
/// already exact).
#[derive(Debug, Clone, Copy)]
struct Selected {
    radius: f64,
    unsorted: usize,
}

/// Reusable intermediates of the per-window statistics (Eqs. 2–4). One
/// instance per pipeline. The trimmed-mean working set is meaningless
/// between calls; the Eq. 3 results of the last
/// [`identify_states_into`] stay readable until the next one.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    /// All window readings, flattened in canonical order.
    flat: Vec<f64>,
    /// One attribute column, for median selection.
    column: Vec<f64>,
    /// Coordinate-wise median of the window readings.
    median: Vec<f64>,
    /// One [`order_key`] per reading: distance from the median, then
    /// arrival index.
    keys: Vec<u128>,
    /// The resulting mean — borrowed by `trimmed_mean_with`'s return.
    mean: Vec<f64>,
    /// The kept readings' Σ|x| per attribute: Eq. 2's error bound.
    spread: Vec<f64>,
    /// Sensors that reported in the identified window, ascending.
    ids: Vec<SensorId>,
    /// Their window-mean representatives, flat (`ids.len() × dims`).
    representatives: Vec<f64>,
    /// The label each of them voted with; `None` for one that abstained.
    votes: Vec<Option<usize>>,
    /// Their Eq. 3 labels, abstainers' included.
    labels: Vec<usize>,
    /// Eq. 4 vote tally, indexed by model-state slot.
    tally: Vec<usize>,
}

impl WindowScratch {
    /// Creates empty scratch buffers (they size themselves on use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Eq. 2's exact finish: sorts the kept keys the selection left
    /// and sums their readings in (distance, arrival) order, the order
    /// that makes the mean bit-identical run to run. The one
    /// O(*n* · log *n*) step of a window close, taken only when the
    /// mean's bits are used.
    fn exact_mean(&mut self, selected: Selected) -> &[f64] {
        let keep = selected.unsorted;
        if keep > 0 {
            let dims = self.mean.len();
            let kept = &mut self.keys[..keep];
            kept.sort_unstable();
            self.mean.fill(0.0);
            for &key in kept.iter() {
                let i = key as u32 as usize;
                let point = &self.flat[i * dims..(i + 1) * dims];
                for (m, &v) in self.mean.iter_mut().zip(point) {
                    *m += v;
                }
            }
            for m in &mut self.mean {
                *m /= keep as f64;
            }
        }
        &self.mean
    }

    /// The sensors that reported in the last identified window, in
    /// ascending id order.
    pub fn sensor_ids(&self) -> &[SensorId] {
        &self.ids
    }

    /// The Eq. 3 label `l_j` of each of [`WindowScratch::sensor_ids`].
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The sensors that put their label to the Eq. 4 vote, with that
    /// label, ascending.
    pub(crate) fn voted(&self) -> impl Iterator<Item = (SensorId, usize)> + '_ {
        let cast = self.ids.iter().zip(&self.votes);
        cast.filter_map(|(&id, &vote)| Some((id, vote?)))
    }

    /// The window-mean representative of each of
    /// [`WindowScratch::sensor_ids`], flat and row-major — the shape
    /// [`ModelStates::update_labeled`] takes.
    pub fn representatives(&self) -> &[f64] {
        &self.representatives
    }

    /// Loads `window`'s reporting sensors and their window-mean
    /// representatives and returns what the label stage works on:
    /// those two to read, and one vote per sensor to cast, none cast
    /// yet.
    pub(crate) fn represent(
        &mut self,
        window: &ObservationWindow,
    ) -> (&[SensorId], &[f64], &mut [Option<usize>]) {
        self.ids.clear();
        self.representatives.clear();
        for (id, samples) in window.sensors() {
            self.ids.push(id);
            samples.mean_into(&mut self.representatives);
        }
        self.votes.clear();
        self.votes.resize(self.ids.len(), None);
        (&self.ids, &self.representatives, &mut self.votes)
    }

    /// Eq. 4 over the votes cast, then a label for every sensor: a
    /// voter keeps its vote, a sensor that abstained gets its nearest
    /// state, so its representative still trains Eqs. 5–6 without
    /// having been counted. Returns the correct state `c_i` and whether
    /// it holds the required strict majority; `None` when nobody voted
    /// or a representative lies outside every active state.
    pub(crate) fn elect(
        &mut self,
        states: &ModelStates,
        majority_fraction: f64,
    ) -> Option<(usize, bool)> {
        self.labels.clear();
        let means = self.representatives.chunks_exact(states.dims());
        for (vote, mean) in self.votes.iter().zip(means) {
            let label = match vote {
                Some(label) => *label,
                None => states.nearest(mean)?.0,
            };
            self.labels.push(label);
        }
        tally_votes(
            self.votes.iter().flatten().copied(),
            majority_fraction,
            &mut self.tally,
        )
    }
}

/// Eq. 3 over flat representatives (`votes.len() × dims`, row-major):
/// every sensor votes for the model state nearest its window mean.
pub(crate) fn label_nearest(
    states: &ModelStates,
    representatives: &[f64],
    votes: &mut [Option<usize>],
) {
    let means = representatives.chunks_exact(states.dims());
    for (vote, mean) in votes.iter_mut().zip(means) {
        *vote = states.nearest(mean).map(|(label, _)| label);
    }
}

/// Incremental windower: feed `(time, sensor, values)` in time order,
/// receive completed [`ObservationWindow`]s.
///
/// Completed windows can be handed back via [`Windower::recycle`]; the
/// windower then reuses their buffers instead of allocating fresh ones.
#[derive(Debug, Clone)]
pub struct Windower {
    window_duration: u64,
    current: ObservationWindow,
    started: bool,
    spare: Vec<ObservationWindow>,
}

/// How many recycled windows the windower keeps around. The serial
/// pipeline needs one; a small cushion covers bursts where a stream
/// jump completes several windows at once.
const MAX_SPARE_WINDOWS: usize = 8;

impl Windower {
    /// Creates a windower with windows of `window_duration` seconds
    /// (`w · sample_period`).
    ///
    /// # Panics
    ///
    /// Panics if `window_duration == 0`.
    pub fn new(window_duration: u64) -> Self {
        assert!(window_duration > 0, "window duration must be positive");
        Self {
            window_duration,
            current: ObservationWindow::default(),
            started: false,
            spare: Vec::new(),
        }
    }

    /// Window length in seconds.
    pub fn window_duration(&self) -> u64 {
        self.window_duration
    }

    /// The attribute count of the open window's readings, if it holds
    /// any.
    pub(crate) fn dims(&self) -> Option<usize> {
        self.current.sensors().next().map(|(_, s)| s.dims())
    }

    /// Returns a processed window's buffers for reuse.
    pub fn recycle(&mut self, window: ObservationWindow) {
        if self.spare.len() < MAX_SPARE_WINDOWS {
            self.spare.push(window);
        }
    }

    /// Swaps in a cleared window for `index`, returning the finished one.
    fn roll_to(&mut self, index: u64) -> ObservationWindow {
        let mut fresh = self.spare.pop().unwrap_or_default();
        fresh.reset();
        fresh.index = index;
        fresh.start = index * self.window_duration;
        std::mem::replace(&mut self.current, fresh)
    }

    /// Feeds one delivered reading's values. Returns completed windows
    /// (possibly more than one if the stream jumps over empty windows).
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current window (records must
    /// arrive in time order, as [`sentinet_sim::Trace`] guarantees).
    pub fn push(
        &mut self,
        time: Timestamp,
        sensor: SensorId,
        values: &[f64],
    ) -> Vec<ObservationWindow> {
        // Nearly every reading lands in the open window: no division,
        // nothing to roll, nothing to return. One that precedes the
        // window falls through to the assert below.
        let into_open = time.checked_sub(self.current.start);
        if self.started && into_open.is_some_and(|t| t < self.window_duration) {
            self.current.push(sensor, values);
            return Vec::new();
        }
        let target_index = time / self.window_duration;
        if !self.started {
            self.started = true;
            self.current.index = target_index;
            self.current.start = target_index * self.window_duration;
        }
        assert!(
            target_index >= self.current.index,
            "reading at t={time} precedes current window {}",
            self.current.index
        );
        let mut completed = Vec::new();
        while target_index > self.current.index {
            let done = self.roll_to(self.current.index + 1);
            // Skip emitting windows in which nothing arrived at all;
            // they carry no information (the paper requires w "large
            // enough to create nonempty sets").
            if done.is_empty() {
                self.recycle(done);
            } else {
                completed.push(done);
            }
        }
        self.current.index = target_index;
        self.current.start = target_index * self.window_duration;
        self.current.push(sensor, values);
        completed
    }

    /// Captures the in-progress window as a restore-point
    /// [`WindowerSnapshot`]. Only sensors with delivered readings are
    /// recorded, so a live windower (whose recycled windows keep
    /// cleared per-sensor buffers around) and its restored twin
    /// snapshot identically.
    pub fn snapshot(&self) -> WindowerSnapshot {
        WindowerSnapshot {
            started: self.started,
            index: self.current.index,
            start: self.current.start,
            readings: self
                .current
                .sensors()
                .map(|(id, s)| (id, s.dims(), s.as_flat().to_vec()))
                .collect(),
        }
    }

    /// Rebuilds a windower mid-window from a [`WindowerSnapshot`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] when a sensor's flat sample buffer
    /// disagrees with its recorded dimensionality, or a started
    /// window's start is not its index times `window_duration`
    /// ([`Windower::push`] places readings by the start it is given).
    ///
    /// # Panics
    ///
    /// Panics if `window_duration == 0` (as [`Windower::new`]).
    pub fn from_snapshot(
        window_duration: u64,
        snapshot: &WindowerSnapshot,
    ) -> Result<Self, CheckpointError> {
        let mut w = Self::new(window_duration);
        if snapshot.started && snapshot.index.checked_mul(window_duration) != Some(snapshot.start) {
            return Err(CheckpointError::Invalid(format!(
                "windower window {} does not start at {}",
                snapshot.index, snapshot.start
            )));
        }
        w.started = snapshot.started;
        w.current.index = snapshot.index;
        w.current.start = snapshot.start;
        for (id, dims, data) in &snapshot.readings {
            if *dims == 0 || !data.len().is_multiple_of(*dims) || data.is_empty() {
                return Err(CheckpointError::Invalid(format!(
                    "windower sensor {}: {} samples do not divide into dims {dims}",
                    id.0,
                    data.len()
                )));
            }
            for values in data.chunks_exact(*dims) {
                w.current.push(*id, values);
            }
        }
        Ok(w)
    }

    /// Flushes the in-progress window (end of stream).
    pub fn finish(&mut self) -> Option<ObservationWindow> {
        if self.current.is_empty() {
            None
        } else {
            let done = self.roll_to(self.current.index + 1);
            Some(done)
        }
    }
}

/// The per-window state-identification outcome (Eqs. 2–4).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStates {
    /// The observable environment state `o_i` (Eq. 2).
    pub observable: usize,
    /// The correct environment state `c_i` (Eq. 4).
    pub correct: usize,
    /// Per-sensor labels `l_j` (Eq. 3) over window-mean readings.
    pub labels: BTreeMap<SensorId, usize>,
    /// The per-sensor representatives used for labeling, for clustering
    /// updates downstream.
    pub representatives: BTreeMap<SensorId, Vec<f64>>,
    /// Whether the winning label holds a *strict majority* of the
    /// reporting sensors. Eq. 4 is only valid under the paper's
    /// majority assumption; windows without a strict majority (e.g. an
    /// honest split across a state boundary plus compromised sensors)
    /// are ambiguous and should not train models or drive alarms.
    pub decisive: bool,
}

/// Computes Eqs. 2–4 for `window` against the current model states.
///
/// `trim` is the robust-mean trim fraction for the observable state
/// (`0` = the paper's exact Eq. 2; see
/// [`ObservationWindow::trimmed_mean`]).
///
/// Returns `None` for an empty window.
///
/// # Panics
///
/// Panics unless `0 ≤ trim < 0.5`.
pub fn identify_states(
    window: &ObservationWindow,
    states: &ModelStates,
    trim: f64,
    majority_fraction: f64,
) -> Option<WindowStates> {
    let overall = window.trimmed_mean(trim)?;
    identify_states_with(window, states, &overall, majority_fraction)
}

/// [`identify_states`] with the window aggregate (Eq. 2 robust mean)
/// already computed — callers that also need the mean for coverage
/// checks avoid computing it twice.
pub fn identify_states_with(
    window: &ObservationWindow,
    states: &ModelStates,
    overall: &[f64],
    majority_fraction: f64,
) -> Option<WindowStates> {
    let observable = states.nearest(overall)?.0;
    let mut scratch = WindowScratch::new();
    let (correct, decisive) =
        identify_states_into(window, states, majority_fraction, &mut scratch)?;
    let ids = scratch.ids.iter().copied();
    Some(WindowStates {
        observable,
        correct,
        labels: ids.clone().zip(scratch.labels.iter().copied()).collect(),
        representatives: ids
            .zip(scratch.representatives.chunks_exact(states.dims()))
            .map(|(id, mean)| (id, mean.to_vec()))
            .collect(),
        decisive,
    })
}

/// Eqs. 3–4 out of `scratch`: every reporting sensor's window mean is
/// labelled with its nearest model state and the labels are put to the
/// majority vote. Returns the correct state `c_i` and whether it holds
/// the required strict majority; the sensors, their representatives
/// and their labels are left in `scratch` for the per-sensor stages and
/// the clustering round. `None` for an empty window. With warm buffers
/// nothing is allocated.
///
/// The observable state of Eq. 2 is one more [`ModelStates::nearest`]
/// on the window aggregate, which the caller makes: the aggregate
/// usually borrows this same `scratch`.
pub fn identify_states_into(
    window: &ObservationWindow,
    states: &ModelStates,
    majority_fraction: f64,
    scratch: &mut WindowScratch,
) -> Option<(usize, bool)> {
    let (_, representatives, votes) = scratch.represent(window);
    label_nearest(states, representatives, votes);
    scratch.elect(states, majority_fraction)
}

/// Eq. 4: elects the state backed by the most sensor `labels`, counted
/// in `votes` (one cell per model-state slot, grown to the highest
/// label seen). Ties break toward the lower state index
/// (deterministic). Returns the winner and whether it holds the
/// required strict majority; `None` when no sensor voted.
fn tally_votes(
    labels: impl Iterator<Item = usize>,
    majority_fraction: f64,
    votes: &mut Vec<usize>,
) -> Option<(usize, bool)> {
    votes.clear();
    let mut voters = 0usize;
    for label in labels {
        if label >= votes.len() {
            votes.resize(label + 1, 0);
        }
        votes[label] += 1;
        voters += 1;
    }
    // First strict maximum: a tie goes to the lower slot.
    let mut winner: Option<(usize, usize)> = None;
    for (slot, &count) in votes.iter().enumerate() {
        if count > winner.map_or(0, |(_, most)| most) {
            winner = Some((slot, count));
        }
    }
    let (correct, most) = winner?;
    let decisive = most as f64 > majority_fraction * voters as f64;
    Some((correct, decisive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinet_cluster::ClusterConfig;
    use sentinet_sim::Reading;

    fn states2() -> ModelStates {
        ModelStates::new(
            vec![vec![0.0, 0.0], vec![10.0, 10.0]],
            ClusterConfig {
                alpha: 0.1,
                merge_threshold: 1.0,
                spawn_threshold: 50.0,
                max_states: 8,
            },
        )
    }

    fn win(readings: &[(u16, Vec<f64>)]) -> ObservationWindow {
        let mut w = ObservationWindow::default();
        for (s, v) in readings {
            w.push(SensorId(*s), v);
        }
        w
    }

    #[test]
    fn windower_groups_by_duration() {
        let mut w = Windower::new(3_600);
        assert!(w.push(0, SensorId(0), &[1.0]).is_empty());
        assert!(w.push(300, SensorId(1), &[2.0]).is_empty());
        let done = w.push(3_600, SensorId(0), &[3.0]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].index, 0);
        assert_eq!(done[0].num_readings(), 2);
        let tail = w.finish().unwrap();
        assert_eq!(tail.index, 1);
        assert_eq!(tail.num_readings(), 1);
    }

    #[test]
    fn windower_skips_empty_gaps() {
        let mut w = Windower::new(100);
        w.push(0, SensorId(0), &[1.0]);
        let done = w.push(1_000, SensorId(0), &[2.0]);
        // Only the non-empty window 0 is emitted; windows 1..9 had no data.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].index, 0);
    }

    #[test]
    #[should_panic(expected = "precedes current window")]
    fn out_of_order_panics() {
        let mut w = Windower::new(100);
        w.push(500, SensorId(0), &[1.0]);
        w.push(100, SensorId(0), &[1.0]);
    }

    #[test]
    fn windower_starts_at_first_reading_window() {
        let mut w = Windower::new(100);
        let done = w.push(550, SensorId(0), &[1.0]);
        assert!(done.is_empty());
        let tail = w.finish().unwrap();
        assert_eq!(tail.index, 5);
        assert_eq!(tail.start, 500);
    }

    #[test]
    fn finish_on_empty_is_none() {
        let mut w = Windower::new(100);
        assert!(w.finish().is_none());
    }

    #[test]
    fn recycled_windows_reuse_buffers_and_stay_equivalent() {
        let mut w = Windower::new(100);
        w.push(0, SensorId(3), &[1.0]);
        let done = w.push(100, SensorId(3), &[2.0]).remove(0);
        assert_eq!(done.num_readings(), 1);
        w.recycle(done);
        // The reading at t=100 opened window 1; completing that rolls
        // to window 2, which is backed by the recycled window-0
        // buffers. Stale sensor entries must not leak through.
        let mid = w.push(250, SensorId(7), &[4.0]).remove(0);
        assert_eq!(mid.index, 1);
        assert_eq!(mid.num_readings(), 1);
        w.recycle(mid);
        let next = w.push(300, SensorId(7), &[5.0]).remove(0);
        assert_eq!(next.index, 2);
        assert_eq!(next.num_readings(), 1);
        assert_eq!(next.sensors().count(), 1);
        assert_eq!(next.sensor_means()[&SensorId(7)], vec![4.0]);
        assert_eq!(next.overall_mean().unwrap(), vec![4.0]);
    }

    #[test]
    fn windower_snapshot_round_trips_mid_window() {
        let mut w = Windower::new(100);
        w.push(0, SensorId(0), &[1.0, 2.0]);
        w.push(250, SensorId(1), &[3.0, 4.0]);
        w.push(260, SensorId(1), &[5.0, 6.0]);
        let snap = w.snapshot();
        let mut restored = Windower::from_snapshot(100, &snap).expect("restore");
        // Both continue identically: same completed window on the next
        // roll, byte-equal re-snapshot.
        assert_eq!(restored.snapshot(), snap);
        let a = w.push(300, SensorId(0), &[7.0]).remove(0);
        let b = restored.push(300, SensorId(0), &[7.0]).remove(0);
        assert_eq!(a, b);
        assert_eq!(a.index, 2);

        // A never-started windower round-trips too.
        let empty = Windower::new(100);
        let snap = empty.snapshot();
        assert!(!snap.started);
        assert_eq!(
            Windower::from_snapshot(100, &snap).unwrap().snapshot(),
            snap
        );

        // Corrupt dims are rejected, and so is a window that does not
        // start where its index says.
        let mut bad = w.snapshot();
        bad.readings[0].1 = 3;
        assert!(Windower::from_snapshot(100, &bad).is_err());
        let mut bad = w.snapshot();
        bad.start += 1;
        assert!(Windower::from_snapshot(100, &bad).is_err());
    }

    #[test]
    fn overall_mean_and_sensor_means() {
        let w = win(&[
            (0, vec![1.0, 2.0]),
            (0, vec![3.0, 4.0]),
            (1, vec![10.0, 10.0]),
        ]);
        assert_eq!(w.overall_mean().unwrap(), vec![14.0 / 3.0, 16.0 / 3.0]);
        let means = w.sensor_means();
        assert_eq!(means[&SensorId(0)], vec![2.0, 3.0]);
        assert_eq!(means[&SensorId(1)], vec![10.0, 10.0]);
    }

    #[test]
    fn trimmed_mean_matches_sort_based_reference() {
        // Reference implementation: full stable sort by distance from
        // the coordinate-wise median, as the original code did.
        fn reference(points: &[Vec<f64>], trim: f64) -> Vec<f64> {
            let dims = points[0].len();
            let mut median = Vec::new();
            for d in 0..dims {
                let mut xs: Vec<f64> = points.iter().map(|p| p[d]).collect();
                xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                median.push(xs[xs.len() / 2]);
            }
            let dist = |p: &[f64]| {
                p.iter()
                    .zip(&median)
                    .map(|(x, m)| (x - m) * (x - m))
                    .sum::<f64>()
                    .sqrt()
            };
            let mut by_dist: Vec<&Vec<f64>> = points.iter().collect();
            by_dist.sort_by(|a, b| dist(a).partial_cmp(&dist(b)).unwrap());
            let keep = (points.len() as f64 * (1.0 - trim)).ceil().max(1.0) as usize;
            let kept = &by_dist[..keep.min(by_dist.len())];
            let mut mean = vec![0.0; dims];
            for p in kept {
                for (m, &v) in mean.iter_mut().zip(p.iter()) {
                    *m += v;
                }
            }
            mean.iter_mut().for_each(|m| *m /= kept.len() as f64);
            mean
        }

        // Includes exact distance ties (mirror-image points) to pin the
        // stable tie-breaking behavior.
        let pts = vec![
            vec![1.0, 2.0],
            vec![-1.0, 2.0],
            vec![3.0, -4.0],
            vec![-3.0, 8.0],
            vec![0.5, 2.0],
            vec![100.0, -50.0],
            vec![0.6, 1.9],
        ];
        let w = win(&pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u16, p.clone()))
            .collect::<Vec<_>>());
        for trim in [0.1, 0.15, 0.3, 0.49] {
            let got = w.trimmed_mean(trim).unwrap();
            let want = reference(&pts, trim);
            for (g, e) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), e.to_bits(), "trim {trim}");
            }
        }
    }

    #[test]
    fn order_keys_compare_like_total_cmp_then_arrival() {
        let distances = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &distances {
            for &b in &distances {
                for (i, j) in [(0, 0), (0, 1), (1, 0), (7, u32::MAX)] {
                    assert_eq!(
                        order_key(a, i).cmp(&order_key(b, j)),
                        a.total_cmp(&b).then(i.cmp(&j)),
                        "({a}, {i}) against ({b}, {j})"
                    );
                }
            }
        }
        assert_eq!(order_key(2.5, 41) as u32, 41, "the low half is the arrival");
    }

    #[test]
    fn trimmed_mean_with_reuses_scratch() {
        let w = win(&[(0, vec![1.0]), (1, vec![2.0]), (2, vec![50.0])]);
        let mut scratch = WindowScratch::new();
        let a = w.trimmed_mean_with(0.34, &mut scratch).unwrap().to_vec();
        let b = w.trimmed_mean(0.34).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, vec![1.5], "the outlier at 50 is trimmed");
        // Second query through the same scratch gives the same answer.
        let c = w.trimmed_mean_with(0.34, &mut scratch).unwrap().to_vec();
        assert_eq!(a, c);
    }

    #[test]
    fn empty_window_mean_is_none() {
        let w = ObservationWindow::default();
        assert!(w.overall_mean().is_none());
        assert!(identify_states(&w, &states2(), 0.0, 0.5).is_none());
    }

    #[test]
    fn identify_states_majority_vote() {
        // Three sensors near state 0, one outlier near state 1.
        let w = win(&[
            (0, vec![0.1, 0.2]),
            (1, vec![-0.3, 0.1]),
            (2, vec![0.2, -0.1]),
            (3, vec![9.5, 10.2]),
        ]);
        let s = identify_states(&w, &states2(), 0.0, 0.5).unwrap();
        assert_eq!(s.correct, 0);
        assert_eq!(s.labels[&SensorId(3)], 1);
        assert_eq!(s.labels[&SensorId(0)], 0);
        // Overall mean is dragged toward the outlier but stays nearer 0.
        assert_eq!(s.observable, 0);
    }

    #[test]
    fn observable_can_differ_from_correct() {
        // Two honest at state 0, two attackers pushing hard: the mean
        // crosses to state 1's basin while the majority label stays 0;
        // with 2-2 votes, tie-breaking favors the lower index.
        let w = win(&[
            (0, vec![0.0, 0.0]),
            (1, vec![0.5, 0.5]),
            (2, vec![20.0, 20.0]),
            (3, vec![20.0, 20.0]),
        ]);
        let s = identify_states(&w, &states2(), 0.0, 0.5).unwrap();
        assert_eq!(s.observable, 1, "mean (10.1, 10.1) is nearer state 1");
        assert_eq!(s.correct, 0, "tie breaks to lower state index");
    }

    #[test]
    fn single_sensor_window() {
        let w = win(&[(5, vec![9.0, 9.0])]);
        let s = identify_states(&w, &states2(), 0.0, 0.5).unwrap();
        assert_eq!(s.correct, 1);
        assert_eq!(s.observable, 1);
        assert_eq!(s.representatives.len(), 1);
    }

    #[test]
    fn sensor_samples_reject_dimension_mixups() {
        let mut s = SensorSamples::default();
        s.push(&[1.0, 2.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.dims(), 2);
        let result = std::panic::catch_unwind(move || {
            let mut s = s;
            s.push(&[1.0]);
        });
        assert!(result.is_err());
    }

    // Keep the Reading type in scope for API parity checks: the
    // pipeline feeds `Reading::values()` straight into `push`.
    #[test]
    fn push_accepts_reading_values() {
        let mut w = ObservationWindow::default();
        let r = Reading::new(vec![1.0, 2.0]);
        w.push(SensorId(0), r.values());
        assert_eq!(w.num_readings(), 1);
    }
}
