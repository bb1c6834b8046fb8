//! Online Model State Identification (paper §3.1, Eqs. 5–6).
//!
//! Maintains the evolving set of model states `S = {s_1, …, s_M}` that
//! synthetically describe the physical conditions traversed by the
//! environment *and* by error/attack data. Each window:
//!
//! 1. every state's centroid moves toward the mean of the observations
//!    mapped to it with learning factor `α` (Eq. 6);
//! 2. states closer than `merge_threshold` merge (so correct data is
//!    not split into small clusters);
//! 3. an observation farther than `spawn_threshold` from every state
//!    spawns a new state at its location.
//!
//! States occupy **stable slots**: merging deactivates a slot instead of
//! re-indexing, so the HMM estimators tracking states by index stay
//! consistent; spawning appends a new slot and the caller grows its
//! HMMs. [`StateEvent`] reports what happened.

/// Configuration of the online clustering module.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Learning factor `α ∈ (0, 1)` of Eq. 6 (paper default 0.10).
    pub alpha: f64,
    /// States closer than this (Euclidean) merge into one.
    pub merge_threshold: f64,
    /// Observations farther than this from every active state spawn a
    /// new state.
    pub spawn_threshold: f64,
    /// Hard cap on the number of active states (the paper warns the
    /// module "does not generate too many model states").
    pub max_states: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            alpha: 0.10,
            merge_threshold: 4.0,
            // The paper's GDI state set has ≈ 9-unit spacing between
            // adjacent (temperature, humidity) states; spawning at 8
            // reproduces that granularity, which is also what lets
            // moderately displaced faulty data (e.g. a 10% calibration
            // error) spawn its own error states.
            spawn_threshold: 8.0,
            max_states: 16,
        }
    }
}

/// A structural change to the state set during an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateEvent {
    /// A new state slot was created (index of the new slot).
    Spawned(usize),
    /// Slot `from` was merged into slot `into` and deactivated.
    Merged {
        /// The deactivated slot.
        from: usize,
        /// The surviving slot.
        into: usize,
    },
}

/// The evolving set of model states.
///
/// # Examples
///
/// ```
/// use sentinet_cluster::{ClusterConfig, ModelStates};
///
/// let mut states = ModelStates::new(
///     vec![vec![12.0, 94.0], vec![31.0, 56.0]],
///     ClusterConfig::default(),
/// );
/// let (l, _) = states.nearest(&[13.0, 93.0]).unwrap();
/// assert_eq!(l, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStates {
    centroids: Vec<Vec<f64>>,
    active: Vec<bool>,
    config: ClusterConfig,
    dims: usize,
    /// Bumped on every structural or centroid change; see
    /// [`ModelStates::generation`].
    generation: u64,
}

impl ModelStates {
    /// Creates the state set from initial centroids (offline-clustered
    /// historical data or random picks, per the paper).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, has inconsistent dimensions, or the
    /// config has invalid parameters.
    pub fn new(initial: Vec<Vec<f64>>, config: ClusterConfig) -> Self {
        assert!(!initial.is_empty(), "need at least one initial state");
        let dims = initial[0].len();
        assert!(dims > 0, "states must have at least one attribute");
        assert!(
            initial.iter().all(|c| c.len() == dims),
            "inconsistent state dimensions"
        );
        assert!(
            config.alpha > 0.0 && config.alpha < 1.0,
            "alpha must be in (0, 1)"
        );
        assert!(
            config.merge_threshold >= 0.0 && config.spawn_threshold > config.merge_threshold,
            "spawn threshold must exceed merge threshold"
        );
        assert!(config.max_states >= initial.len(), "max_states too small");
        let active = vec![true; initial.len()];
        Self {
            centroids: initial,
            active,
            config,
            dims,
            generation: 0,
        }
    }

    /// Update generation: incremented whenever the state set changes
    /// (centroid moves, merges, spawns). Callers that derive expensive
    /// products from the centroids can use it as a cache key.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total slots ever allocated (active and merged-away).
    pub fn num_slots(&self) -> usize {
        self.centroids.len()
    }

    /// Indices of currently active states.
    pub fn active_states(&self) -> Vec<usize> {
        (0..self.centroids.len())
            .filter(|&i| self.active[i])
            .collect()
    }

    /// Number of currently active states, without materialising them.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Attribute dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The centroid of slot `i`, if the slot is active.
    pub fn centroid(&self, i: usize) -> Option<&[f64]> {
        if i < self.centroids.len() && self.active[i] {
            Some(&self.centroids[i])
        } else {
            None
        }
    }

    /// The centroid of slot `i` regardless of its active flag: a slot
    /// merged away retains its last centroid, which classification
    /// needs when interpreting historical HMM evidence against it.
    pub fn centroid_any(&self, i: usize) -> Option<&[f64]> {
        self.centroids.get(i).map(Vec::as_slice)
    }

    /// The nearest active state to `point` and its distance (Eq. 3).
    ///
    /// Returns `None` only if every slot has been merged away (cannot
    /// happen: merges always leave the survivor active).
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong dimensionality.
    pub fn nearest(&self, point: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(point.len(), self.dims, "point dimension mismatch");
        let mut best: Option<(usize, f64)> = None;
        for (i, centroid) in self.centroids.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            let d = dist(centroid, point);
            // Strictly-less keeps the first of several equidistant
            // states: the lowest slot wins an exact tie.
            if best.is_none_or(|(_, nearest)| d.total_cmp(&nearest).is_lt()) {
                best = Some((i, d));
            }
        }
        best
    }

    /// Maps each observation to its nearest state — the `l_j` labels of
    /// Eq. 3.
    pub fn assign(&self, points: &[Vec<f64>]) -> Vec<usize> {
        points
            .iter()
            // sentinet-allow(expect-used): merges always leave a survivor, so an active state exists
            .map(|p| self.nearest(p).expect("at least one active state").0)
            .collect()
    }

    /// Spawns a new state at `point` if it lies farther than the spawn
    /// threshold from every active state (and the cap allows), returning
    /// the new slot index.
    ///
    /// The detection pipeline uses this to guarantee the *observable*
    /// state of Eq. 2 can name a window mean that an attack has shifted
    /// into a region no sensor reading occupies.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong dimensionality.
    pub fn spawn_if_uncovered(&mut self, point: &[f64]) -> Option<usize> {
        // sentinet-allow(expect-used): merges always leave a survivor, so an active state exists
        let (_, d) = self.nearest(point).expect("at least one active state");
        if d > self.config.spawn_threshold && self.active_count() < self.config.max_states {
            let slot = self.push_slot(point);
            self.generation += 1;
            self.assert_invariants("spawn_if_uncovered");
            Some(slot)
        } else {
            None
        }
    }

    /// Appends an active slot at `point`, returning its index.
    fn push_slot(&mut self, point: &[f64]) -> usize {
        self.centroids.push(point.to_vec());
        self.active.push(true);
        self.centroids.len() - 1
    }

    /// Performs one full update round on a window's observations:
    /// EWMA centroid update (Eq. 6), merge pass, spawn pass.
    ///
    /// Returns the structural events so callers can grow/mask their
    /// per-state models. Labels the points itself and allocates its
    /// working set; a caller that already holds the Eq. 3 labels and a
    /// flat point buffer uses [`ModelStates::update_labeled`].
    pub fn update(&mut self, points: &[Vec<f64>]) -> Vec<StateEvent> {
        let labels = self.assign(points);
        let flat: Vec<f64> = points.iter().flatten().copied().collect();
        self.update_labeled(&flat, &labels, &mut UpdateScratch::default())
    }

    /// [`ModelStates::update`] over a flat point buffer (`labels.len()
    /// × dims()`, row-major) whose Eq. 3 labels the caller already
    /// computed with [`ModelStates::nearest`] against *this* state set
    /// — no state may have moved, merged or spawned since. One pass
    /// over the points accumulates every slot's sum and count; with a
    /// warm `scratch` nothing is allocated unless a state spawns.
    ///
    /// # Panics
    ///
    /// Panics if `points` is not `labels.len() × dims()` long or a
    /// label does not name an active slot.
    pub fn update_labeled(
        &mut self,
        points: &[f64],
        labels: &[usize],
        scratch: &mut UpdateScratch,
    ) -> Vec<StateEvent> {
        let dims = self.dims;
        assert_eq!(
            points.len(),
            labels.len() * dims,
            "flat points disagree with the label count"
        );
        let mut events = Vec::new();
        if labels.is_empty() {
            return events;
        }
        self.generation += 1;

        // Eq. 6: s_k ← (1-α)·s_k + α·mean(P_k) for non-empty P_k. Sums
        // run in point order from -0.0, `Iterator::sum`'s identity, so
        // they are bit-equal to summing each slot's members separately.
        scratch.sums.clear();
        scratch.sums.resize(self.centroids.len() * dims, -0.0);
        scratch.counts.clear();
        scratch.counts.resize(self.centroids.len(), 0);
        for (point, &k) in points.chunks_exact(dims).zip(labels) {
            assert!(self.active[k], "label {k} names no active state");
            scratch.counts[k] += 1;
            for (sum, &v) in scratch.sums[k * dims..(k + 1) * dims].iter_mut().zip(point) {
                *sum += v;
            }
        }
        let alpha = self.config.alpha;
        for (k, centroid) in self.centroids.iter_mut().enumerate() {
            if scratch.counts[k] == 0 {
                continue;
            }
            let inv = 1.0 / scratch.counts[k] as f64;
            for (c, &sum) in centroid.iter_mut().zip(&scratch.sums[k * dims..]) {
                *c = (1.0 - alpha) * *c + alpha * (sum * inv);
            }
        }

        // Merge pass: collapse active states closer than the threshold.
        // The lower-indexed slot survives (stable identity).
        for i in 0..self.centroids.len() {
            if !self.active[i] {
                continue;
            }
            for j in i + 1..self.centroids.len() {
                if !self.active[j] {
                    continue;
                }
                if dist(&self.centroids[i], &self.centroids[j]) < self.config.merge_threshold {
                    // Survivor moves to the midpoint.
                    let (head, tail) = self.centroids.split_at_mut(j);
                    for (a, &b) in head[i].iter_mut().zip(&tail[0]) {
                        *a = (*a + b) / 2.0;
                    }
                    self.active[j] = false;
                    events.push(StateEvent::Merged { from: j, into: i });
                }
            }
        }

        // Spawn pass: points beyond the spawn threshold from every
        // active state create new states (capped).
        for point in points.chunks_exact(dims) {
            // sentinet-allow(expect-used): merges always leave a survivor, so an active state exists
            let (_, d) = self.nearest(point).expect("at least one active state");
            if d > self.config.spawn_threshold && self.active_count() < self.config.max_states {
                events.push(StateEvent::Spawned(self.push_slot(point)));
            }
        }
        self.assert_invariants("update");
        events
    }

    /// Asserts the structural invariants after a mutation: at least one
    /// active state survives, and every active centroid is finite.
    /// Compiles to nothing unless the `check-invariants` feature is on;
    /// `xtask analyze` runs the test suite with it enabled.
    #[cfg(feature = "check-invariants")]
    fn assert_invariants(&self, context: &str) {
        debug_assert!(
            self.active.iter().any(|&a| a),
            "{context}: every model-state slot is inactive"
        );
        for (i, c) in self.centroids.iter().enumerate() {
            if self.active[i] {
                debug_assert!(
                    c.iter().all(|x| x.is_finite()),
                    "{context}: centroid {i} contains a non-finite entry: {c:?}"
                );
            }
        }
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn assert_invariants(&self, _context: &str) {}

    /// Captures the complete state set as plain data for checkpointing.
    /// [`ModelStates::from_snapshot`] rebuilds a set that is `==` to
    /// this one (all floats verbatim, the generation counter included,
    /// so memo caches keyed on [`ModelStates::generation`] stay
    /// coherent across a restore).
    pub fn snapshot(&self) -> StatesSnapshot {
        StatesSnapshot {
            centroids: self.centroids.clone(),
            active: self.active.clone(),
            config: self.config.clone(),
            generation: self.generation,
        }
    }

    /// Rebuilds a state set from a snapshot, re-validating the
    /// structural invariants (a corrupt checkpoint must fail loudly).
    ///
    /// # Errors
    ///
    /// A description of the violated invariant.
    pub fn from_snapshot(snapshot: StatesSnapshot) -> Result<Self, String> {
        let StatesSnapshot {
            centroids,
            active,
            config,
            generation,
        } = snapshot;
        if centroids.is_empty() {
            return Err("state snapshot has no slots".into());
        }
        let dims = centroids[0].len();
        if dims == 0 {
            return Err("state snapshot has zero-dimensional centroids".into());
        }
        if centroids.iter().any(|c| c.len() != dims) {
            return Err("state snapshot has inconsistent centroid dimensions".into());
        }
        if active.len() != centroids.len() {
            return Err(format!(
                "state snapshot active flags ({}) disagree with slots ({})",
                active.len(),
                centroids.len()
            ));
        }
        if !active.iter().any(|&a| a) {
            return Err("state snapshot has no active slot".into());
        }
        if !(config.alpha > 0.0 && config.alpha < 1.0) {
            return Err(format!(
                "state snapshot alpha {} out of (0, 1)",
                config.alpha
            ));
        }
        if !(config.merge_threshold >= 0.0 && config.spawn_threshold > config.merge_threshold) {
            return Err("state snapshot thresholds inverted".into());
        }
        // The cap bounds *active* states (that is what `update` and
        // `spawn_if_uncovered` enforce); merged-away slots are never
        // reclaimed, so a long run legitimately holds more slots.
        if config.max_states < active.iter().filter(|&&a| a).count() {
            return Err("state snapshot exceeds its own max_states".into());
        }
        let restored = Self {
            centroids,
            active,
            config,
            dims,
            generation,
        };
        restored.assert_invariants("from_snapshot");
        Ok(restored)
    }
}

/// Reusable per-slot accumulators for [`ModelStates::update_labeled`];
/// contents are meaningless between calls.
#[derive(Debug, Clone, Default)]
pub struct UpdateScratch {
    /// Per-slot attribute sums of the points labelled with the slot
    /// (`num_slots × dims`).
    sums: Vec<f64>,
    /// Per-slot count of those points.
    counts: Vec<usize>,
}

/// Plain-data image of a [`ModelStates`], produced by
/// [`ModelStates::snapshot`] for checkpoint/restore. Centroids are
/// stored verbatim, so a round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct StatesSnapshot {
    /// Every slot's centroid (active and merged-away).
    pub centroids: Vec<Vec<f64>>,
    /// Per-slot active flag.
    pub active: Vec<bool>,
    /// The clustering configuration in force at capture time.
    pub config: ClusterConfig,
    /// Update-generation counter at capture time.
    pub generation: u64,
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let mut states = ModelStates::new(
            vec![vec![12.0, 94.0], vec![31.0, 56.0]],
            ClusterConfig::default(),
        );
        states.update(&[vec![12.5, 93.0], vec![40.0, 40.0]]);
        let restored = ModelStates::from_snapshot(states.snapshot()).unwrap();
        assert_eq!(states, restored);
        // Continuing both yields identical evolution.
        let mut a = states;
        let mut b = restored;
        let evs_a = a.update(&[vec![13.0, 92.0]]);
        let evs_b = b.update(&[vec![13.0, 92.0]]);
        assert_eq!(evs_a, evs_b);
        assert_eq!(a, b);
    }

    #[test]
    fn from_snapshot_rejects_corruption() {
        let states = ModelStates::new(vec![vec![1.0, 2.0]], ClusterConfig::default());
        let good = states.snapshot();
        let mut bad = good.clone();
        bad.active = vec![false];
        assert!(ModelStates::from_snapshot(bad).is_err());
        let mut bad = good.clone();
        bad.centroids = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(ModelStates::from_snapshot(bad).is_err());
        let mut bad = good.clone();
        bad.config.alpha = 2.0;
        assert!(ModelStates::from_snapshot(bad).is_err());
        let mut bad = good;
        bad.centroids.clear();
        bad.active.clear();
        assert!(ModelStates::from_snapshot(bad).is_err());
    }

    /// Merged-away slots stay allocated, so merges followed by spawns
    /// legitimately leave more slots than `max_states` while the
    /// active count respects it. The set's own snapshot must restore.
    #[test]
    fn snapshot_with_more_slots_than_max_states_round_trips() {
        let config = ClusterConfig {
            max_states: 2,
            ..ClusterConfig::default()
        };
        let mut states = ModelStates::new(vec![vec![20.0, 50.0], vec![21.0, 50.0]], config);
        // One round merges the two neighbours, the next two spawn.
        states.update(&[vec![20.5, 50.0]]);
        states.update(&[vec![60.0, 50.0]]);
        states.update(&[vec![90.0, 10.0]]);
        assert_eq!(states.active_states().len(), 2, "cap holds on active");
        assert_eq!(states.num_slots(), 3, "one merged-away slot remains");
        let restored = ModelStates::from_snapshot(states.snapshot()).unwrap();
        assert_eq!(states, restored);
        // More *active* states than the cap is still corruption.
        let mut bad = states.snapshot();
        bad.active = vec![true; 3];
        assert!(ModelStates::from_snapshot(bad).is_err());
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            alpha: 0.5,
            merge_threshold: 1.0,
            spawn_threshold: 10.0,
            max_states: 8,
        }
    }

    #[test]
    fn nearest_and_assign() {
        let s = ModelStates::new(vec![vec![0.0, 0.0], vec![10.0, 0.0]], cfg());
        let (i, d) = s.nearest(&[1.0, 0.0]).unwrap();
        assert_eq!(i, 0);
        assert!((d - 1.0).abs() < 1e-12);
        assert_eq!(s.assign(&[vec![9.0, 0.0], vec![-1.0, 0.0]]), vec![1, 0]);
    }

    #[test]
    fn ewma_update_moves_centroid_toward_mean() {
        let mut s = ModelStates::new(
            vec![vec![0.0]],
            ClusterConfig {
                alpha: 0.5,
                merge_threshold: 0.1,
                spawn_threshold: 100.0,
                max_states: 4,
            },
        );
        let ev = s.update(&[vec![2.0], vec![4.0]]); // mean 3 → centroid 1.5
        assert!(ev.is_empty());
        assert!((s.centroid(0).unwrap()[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_state_not_updated() {
        let mut s = ModelStates::new(
            vec![vec![0.0], vec![100.0]],
            ClusterConfig {
                alpha: 0.5,
                merge_threshold: 0.1,
                spawn_threshold: 200.0,
                max_states: 4,
            },
        );
        s.update(&[vec![1.0]]);
        assert_eq!(s.centroid(1).unwrap(), &[100.0]);
    }

    #[test]
    fn merge_deactivates_higher_slot() {
        let mut s = ModelStates::new(vec![vec![0.0], vec![0.5]], cfg());
        let ev = s.update(&[vec![0.25]]);
        assert!(ev.contains(&StateEvent::Merged { from: 1, into: 0 }));
        assert_eq!(s.active_states(), vec![0]);
        assert!(s.centroid(1).is_none());
        // Survivor at the midpoint of the two merged centroids.
        let c = s.centroid(0).unwrap()[0];
        assert!(c > 0.0 && c < 0.5);
    }

    #[test]
    fn spawn_on_distant_observation() {
        let mut s = ModelStates::new(vec![vec![0.0]], cfg());
        let ev = s.update(&[vec![50.0]]);
        assert!(matches!(ev.as_slice(), [StateEvent::Spawned(1)]), "{ev:?}");
        assert_eq!(s.centroid(1).unwrap(), &[50.0]);
        // Subsequent assignment maps nearby points to the new state.
        assert_eq!(s.assign(&[vec![49.0]]), vec![1]);
    }

    #[test]
    fn spawn_respects_max_states() {
        let mut s = ModelStates::new(
            vec![vec![0.0]],
            ClusterConfig {
                alpha: 0.1,
                merge_threshold: 1.0,
                spawn_threshold: 5.0,
                max_states: 2,
            },
        );
        s.update(&[vec![100.0]]); // spawns slot 1 (at cap now)
        let ev = s.update(&[vec![-100.0]]); // would spawn, but capped
        assert!(ev.is_empty());
        assert_eq!(s.active_states().len(), 2);
    }

    #[test]
    fn update_with_no_points_is_noop() {
        let mut s = ModelStates::new(vec![vec![1.0]], cfg());
        assert!(s.update(&[]).is_empty());
        assert_eq!(s.centroid(0).unwrap(), &[1.0]);
    }

    #[test]
    fn converges_to_stable_clusters() {
        // Feed two alternating tight blobs; states settle on them.
        let mut s = ModelStates::new(
            vec![vec![3.0], vec![8.0]],
            ClusterConfig {
                alpha: 0.2,
                merge_threshold: 1.0,
                spawn_threshold: 20.0,
                max_states: 4,
            },
        );
        for _ in 0..100 {
            s.update(&[vec![0.0], vec![0.1], vec![10.0], vec![10.1]]);
        }
        let c0 = s.centroid(0).unwrap()[0];
        let c1 = s.centroid(1).unwrap()[0];
        assert!((c0 - 0.05).abs() < 0.1, "c0 {c0}");
        assert!((c1 - 10.05).abs() < 0.1, "c1 {c1}");
    }

    #[test]
    #[should_panic(expected = "at least one initial state")]
    fn empty_initial_panics() {
        ModelStates::new(vec![], cfg());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        ModelStates::new(
            vec![vec![0.0]],
            ClusterConfig {
                alpha: 1.0,
                ..cfg()
            },
        );
    }

    #[test]
    #[should_panic(expected = "spawn threshold must exceed")]
    fn bad_thresholds_panic() {
        ModelStates::new(
            vec![vec![0.0]],
            ClusterConfig {
                merge_threshold: 5.0,
                spawn_threshold: 2.0,
                ..cfg()
            },
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn nearest_dim_mismatch_panics() {
        let s = ModelStates::new(vec![vec![0.0, 0.0]], cfg());
        s.nearest(&[1.0]);
    }

    #[test]
    fn gdi_like_two_dim_flow() {
        // Four paper states, points near each: mapping must be stable.
        let init = vec![
            vec![12.0, 94.0],
            vec![17.0, 84.0],
            vec![24.0, 70.0],
            vec![31.0, 56.0],
        ];
        let mut s = ModelStates::new(init, ClusterConfig::default());
        let pts = vec![
            vec![12.5, 93.0],
            vec![16.8, 84.5],
            vec![24.2, 69.5],
            vec![30.5, 57.0],
        ];
        let labels = s.assign(&pts);
        assert_eq!(labels, vec![0, 1, 2, 3]);
        let ev = s.update(&pts);
        assert!(ev.is_empty(), "no structural change expected: {ev:?}");
        assert_eq!(s.active_states().len(), 4);
    }
}
