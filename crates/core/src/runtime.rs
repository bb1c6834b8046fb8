//! Shared building blocks of the detection pipeline, split along the
//! parallelization boundary.
//!
//! The paper's per-window computation factors into two halves:
//!
//! - **per-sensor** work — alarm filtering, track management, `M_CE`
//!   estimation — which touches only one sensor's state and can run on
//!   any shard ([`SensorRuntime`]);
//! - **global** work — clustering, observable/correct state
//!   identification, `M_CO`/`M_C`/`M_O` estimation, majority voting,
//!   network-level classification — which needs *all* sensors' votes
//!   and must run on a single coordinator ([`GlobalModel`]).
//!
//! One window pass ([`Coordinator`](crate::Coordinator)) drives the
//! `GlobalModel` and hands the per-sensor half to whoever holds the
//! sensors: [`Pipeline`](crate::Pipeline) keeps them in a [`SensorMap`]
//! of its own, the sharded engine (`sentinet-engine`) in one
//! `SensorMap` per worker thread. Every sensor is stepped by this exact
//! code in the same order either way, which is what makes the engine's
//! output bit-for-bit identical to the serial pipeline's.
//!
//! Classification queries are memoized: structural analyses are cached
//! behind the estimators' update generations (see
//! [`OnlineHmmEstimator::generation`]), so repeated
//! `classify`/`network_attack`/confidence calls after unchanged windows
//! are O(1).

use crate::classify::{
    classify_network_with_report, classify_sensor, AttackType, Diagnosis, NetworkEvidence,
    SensorEvidence,
};
use crate::config::{FilterPolicy, PipelineConfig};
use crate::pipeline::WindowOutcome;
use crate::window::{label_nearest, ObservationWindow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_cluster::{kmeans, ModelStates, StateEvent, UpdateScratch};
use sentinet_filter::{AlarmFilter, KOfNFilter, Sprt, SprtAlarmFilter};
use sentinet_hmm::structure::StructureCache;
use sentinet_hmm::{MarkovChain, OnlineHmmEstimator, OnlineMarkovEstimator, StochasticMatrix};
use sentinet_sim::SensorId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Bound;

/// Symbol index reserved for the fictitious ⊥ state of `M_CE`
/// (the sensor agrees with the correct state while its track is open).
pub const BOT_SYMBOL: usize = 0;

/// Open/close record of one error/attack track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackRecord {
    /// Window index at which the filtered alarm opened the track.
    pub opened: u64,
    /// Window index at which it cleared, if it has.
    pub closed: Option<u64>,
}

/// What one [`SensorRuntime::step`] produced for the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorStep {
    /// The sensor's label disagreed with the correct state.
    pub raw: bool,
    /// The filtered alarm is raised after this window.
    pub filtered: bool,
}

/// Cache key for a sensor's memoized diagnosis: invalidated whenever
/// its `M_CE`, the network model, or the window count changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    m_ce_generation: u64,
    network_stamp: (u64, u64),
    windows_processed: u64,
}

#[derive(Debug, Clone)]
struct DiagnosisMemo {
    key: MemoKey,
    diagnosis: Diagnosis,
    confidence: Option<f64>,
}

/// Per-sensor pipeline state: alarm filter, error/attack tracks, and
/// the sensor's `M_CE` estimator.
///
/// A `SensorRuntime` touches no global state — every method depends
/// only on its own fields and the per-window inputs — so disjoint sets
/// of sensors can safely step on different threads.
#[derive(Debug)]
pub struct SensorRuntime {
    filter: Box<dyn AlarmFilter>,
    m_ce: OnlineHmmEstimator,
    track_open: bool,
    tracks: Vec<TrackRecord>,
    raw_history: Vec<(u64, bool)>,
    ever_alarmed: bool,
    memo: RefCell<Option<DiagnosisMemo>>,
}

impl SensorRuntime {
    /// Creates the runtime for a newly seen sensor with `num_slots`
    /// current model-state slots.
    pub fn new(config: &PipelineConfig, num_slots: usize) -> Self {
        let filter: Box<dyn AlarmFilter> = match config.filter {
            FilterPolicy::KOfN { k, n } => Box::new(KOfNFilter::new(k, n)),
            FilterPolicy::Sprt {
                p0,
                p1,
                alpha,
                beta,
            } => Box::new(SprtAlarmFilter::new(Sprt::new(p0, p1, alpha, beta))),
        };
        Self {
            filter,
            m_ce: make_m_ce(config, num_slots),
            track_open: false,
            tracks: Vec::new(),
            raw_history: Vec::new(),
            ever_alarmed: false,
            memo: RefCell::new(None),
        }
    }

    /// Grows the `M_CE` estimator to `num_slots` model-state slots
    /// (no-op when nothing spawned).
    pub fn grow(&mut self, num_slots: usize) {
        self.m_ce.grow(num_slots, num_slots + 1);
    }

    /// One per-sensor step for a *decisive* window: records the raw
    /// alarm, runs the filter, manages the error/attack track, and
    /// feeds `M_CE` while a track is open.
    pub fn step(&mut self, window_index: u64, label: usize, correct: usize) -> SensorStep {
        let raw = label != correct;
        self.raw_history.push((window_index, raw));
        let filtered = self.filter.push(raw);
        if filtered {
            self.ever_alarmed = true;
        }
        match (self.track_open, filtered) {
            (false, true) => {
                self.track_open = true;
                self.tracks.push(TrackRecord {
                    opened: window_index,
                    closed: None,
                });
            }
            (true, false) => {
                self.track_open = false;
                if let Some(t) = self.tracks.last_mut() {
                    t.closed = Some(window_index);
                }
            }
            _ => {}
        }
        if self.track_open {
            let symbol = if raw { label + 1 } else { BOT_SYMBOL };
            self.m_ce
                .observe(correct, symbol)
                // sentinet-allow(expect-used): symbol and state counts are sized by grow before observe runs
                .expect("state and symbol within estimator dims");
        }
        SensorStep { raw, filtered }
    }

    /// Captures the complete per-sensor state for checkpointing. The
    /// snapshot is plain data (see [`crate::checkpoint`]); restoring it
    /// with [`SensorRuntime::from_snapshot`] yields a runtime whose
    /// behaviour — filter outputs, `M_CE` updates, diagnoses — is
    /// bit-identical from this point on. The diagnosis memo is not
    /// captured: it is a cache keyed on generation counters and
    /// rebuilds on first use.
    pub fn snapshot(&self) -> crate::checkpoint::SensorSnapshot {
        crate::checkpoint::SensorSnapshot {
            filter: self.filter.snapshot(),
            m_ce: self.m_ce.export_state(),
            track_open: self.track_open,
            tracks: self.tracks.clone(),
            raw_history: self.raw_history.clone(),
            ever_alarmed: self.ever_alarmed,
        }
    }

    /// Rebuilds a runtime from a checkpoint snapshot.
    ///
    /// # Errors
    ///
    /// [`crate::checkpoint::CheckpointError::Invalid`] if the embedded
    /// estimator state or alarm-filter bounds fail re-validation
    /// (corrupt checkpoint).
    pub fn from_snapshot(
        snapshot: crate::checkpoint::SensorSnapshot,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let invalid = crate::checkpoint::CheckpointError::Invalid;
        let m_ce =
            OnlineHmmEstimator::import_state(snapshot.m_ce).map_err(|e| invalid(e.to_string()))?;
        Ok(Self {
            filter: snapshot.filter.restore().map_err(invalid)?,
            m_ce,
            track_open: snapshot.track_open,
            tracks: snapshot.tracks,
            raw_history: snapshot.raw_history,
            ever_alarmed: snapshot.ever_alarmed,
            memo: RefCell::new(None),
        })
    }

    /// The sensor's `M_CE` estimator.
    pub fn m_ce(&self) -> &OnlineHmmEstimator {
        &self.m_ce
    }

    /// The raw-alarm history as `(window, raw)` pairs.
    pub fn raw_history(&self) -> &[(u64, bool)] {
        &self.raw_history
    }

    /// The error/attack tracks opened for this sensor.
    pub fn tracks(&self) -> &[TrackRecord] {
        &self.tracks
    }

    /// Whether a filtered alarm was ever raised.
    pub fn ever_alarmed(&self) -> bool {
        self.ever_alarmed
    }
}

/// Initial `M_CE` observation matrix: hidden state `i`'s identity
/// prior sits on symbol `i + 1` (symbol 0 is ⊥).
fn make_m_ce(config: &PipelineConfig, num_slots: usize) -> OnlineHmmEstimator {
    let rows: Vec<Vec<f64>> = (0..num_slots)
        .map(|i| {
            let mut r = vec![0.0; num_slots + 1];
            r[i + 1] = 1.0;
            r
        })
        .collect();
    // sentinet-allow(expect-used): one-hot rows are stochastic by construction
    let b = StochasticMatrix::from_rows(rows).expect("rows are one-hot");
    // sentinet-allow(expect-used): num_slots >= 1 is asserted at bootstrap
    let a = StochasticMatrix::identity(num_slots).expect("num_slots > 0");
    OnlineHmmEstimator::with_initial(a, b, config.beta, config.gamma)
        // sentinet-allow(expect-used): learning factors were validated by PipelineConfig::validate
        .expect("validated learning factors")
}

/// Who runs the per-sensor stages of a window — Eq. 3 labelling, the
/// decisive-window step (alarm, filter, track, `M_CE`), estimator
/// growth — for the window pass of a
/// [`Coordinator`](crate::Coordinator): a [`SensorMap`] in process, the
/// sharded engine's worker pool across threads.
///
/// # Errors
///
/// A stage fails with whatever kept it from running where the sensors
/// live; in process nothing can ([`Infallible`]).
pub trait SensorStages {
    /// How handing a stage to someone else can fail.
    type Error;

    /// Eq. 3 over the window's sensors — `ids` ascending, row `i` of
    /// `representatives` (row-major) the window mean of `ids[i]`:
    /// casts `votes[i] = Some(label)` for every sensor that votes, the
    /// label naming the model state nearest its representative. A
    /// sensor whose cell stays `None` abstains: Eq. 4 does not count it
    /// and it is not stepped, but its representative still trains
    /// Eqs. 5–6 under the label the pass gives it.
    fn label(
        &mut self,
        states: &ModelStates,
        ids: &[SensorId],
        representatives: &[f64],
        votes: &mut [Option<usize>],
    ) -> Result<(), Self::Error>;

    /// The per-sensor step of the decisive window `outcome` describes
    /// so far — window `outcome.index`, elected state `outcome.correct`
    /// — for the sensors that `voted` (with their labels, ascending):
    /// a sensor seen for the first time is sized to `num_slots`
    /// model-state slots, every sensor takes its
    /// [`SensorRuntime::step`], and those whose raw or filtered alarm
    /// is up are appended to `outcome.raw_alarms` /
    /// `outcome.filtered_alarms`, ascending.
    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) -> Result<(), Self::Error>;

    /// Grows every sensor's estimators to `num_slots` model-state
    /// slots.
    fn grow(&mut self, num_slots: usize) -> Result<(), Self::Error>;
}

/// The sensors one thread owns, by id, and the per-sensor stages over
/// them: the serial pipeline holds every sensor in one map, a shard
/// worker of the engine holds its share in another.
#[derive(Debug)]
pub struct SensorMap {
    pub(crate) config: PipelineConfig,
    pub(crate) runtimes: BTreeMap<SensorId, SensorRuntime>,
}

impl SensorMap {
    /// Creates an empty map; a sensor appears at its first step.
    pub fn new(config: PipelineConfig) -> Self {
        let runtimes = BTreeMap::new();
        Self { config, runtimes }
    }

    /// Rebuilds a map from the checkpoints [`SensorMap::snapshots`]
    /// took.
    ///
    /// # Errors
    ///
    /// [`crate::checkpoint::CheckpointError`] if any snapshot is
    /// internally inconsistent (see [`SensorRuntime::from_snapshot`]).
    pub fn restore(
        config: PipelineConfig,
        snapshots: Vec<(SensorId, crate::checkpoint::SensorSnapshot)>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let mut runtimes = BTreeMap::new();
        for (id, snapshot) in snapshots {
            runtimes.insert(id, SensorRuntime::from_snapshot(snapshot)?);
        }
        Ok(Self { config, runtimes })
    }

    /// Checkpoints every sensor, in ascending sensor order.
    pub fn snapshots(&self) -> Vec<(SensorId, crate::checkpoint::SensorSnapshot)> {
        self.runtimes
            .iter()
            .map(|(&id, rt)| (id, rt.snapshot()))
            .collect()
    }

    /// Hands the sensors over, leaving the map empty.
    pub fn take(&mut self) -> BTreeMap<SensorId, SensorRuntime> {
        std::mem::take(&mut self.runtimes)
    }
}

impl SensorStages for SensorMap {
    type Error = Infallible;

    fn label(
        &mut self,
        states: &ModelStates,
        _ids: &[SensorId],
        representatives: &[f64],
        votes: &mut [Option<usize>],
    ) -> Result<(), Infallible> {
        label_nearest(states, representatives, votes);
        Ok(())
    }

    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) -> Result<(), Infallible> {
        // `voted` and the map both ascend by sensor id: walk them
        // together. Only a sensor's first appearance pays for a lookup,
        // and it is stepped in its turn, so the alarm lists ascend.
        let mut known = self.runtimes.range_mut(..).peekable();
        for (id, label) in voted {
            while known.next_if(|(k, _)| **k < id).is_some() {}
            if let Some((_, sensor)) = known.next_if(|(k, _)| **k == id) {
                step_sensor(sensor, id, label, outcome);
                continue;
            }
            let config = &self.config;
            let sensor = self
                .runtimes
                .entry(id)
                .or_insert_with(|| SensorRuntime::new(config, num_slots));
            step_sensor(sensor, id, label, outcome);
            known = self
                .runtimes
                .range_mut((Bound::Excluded(id), Bound::Unbounded))
                .peekable();
        }
        Ok(())
    }

    fn grow(&mut self, num_slots: usize) -> Result<(), Infallible> {
        for sensor in self.runtimes.values_mut() {
            sensor.grow(num_slots);
        }
        Ok(())
    }
}

/// One sensor's [`SensorRuntime::step`] for the window `outcome`
/// describes, its alarms appended to `outcome`'s lists.
fn step_sensor(
    sensor: &mut SensorRuntime,
    id: SensorId,
    label: usize,
    outcome: &mut WindowOutcome,
) {
    let step = sensor.step(outcome.index, label, outcome.correct);
    if step.raw {
        outcome.raw_alarms.push(id);
    }
    if step.filtered {
        outcome.filtered_alarms.push(id);
    }
}

/// Memoized network-level products, keyed on the `(M_CO, model states)`
/// generation pair.
#[derive(Debug)]
struct NetMemo {
    stamp: (u64, u64),
    active_rows: Vec<usize>,
    centroids: Vec<Option<Vec<f64>>>,
    verdict: Option<AttackType>,
    structure: StructureCache,
}

/// The global (coordinator-side) half of the pipeline: model states,
/// bootstrap accumulation, the `M_CO`/`M_C`/`M_O` estimators, the
/// decisive-window history, and memoized network classification.
#[derive(Debug)]
pub struct GlobalModel {
    config: PipelineConfig,
    rng: StdRng,
    states: Option<ModelStates>,
    m_co: Option<OnlineHmmEstimator>,
    m_c: Option<OnlineMarkovEstimator>,
    m_o: Option<OnlineMarkovEstimator>,
    bootstrap_points: Vec<Vec<f64>>,
    windows_processed: u64,
    /// Per processed decisive window: (window index, correct state,
    /// observable state) — the `c_i`/`o_i` sequences of §3.
    state_history: Vec<(u64, usize, usize)>,
    net_memo: RefCell<Option<NetMemo>>,
    /// Eq. 6 accumulators, reused by every window's clustering round.
    update_scratch: UpdateScratch,
}

impl GlobalModel {
    /// Creates the global model; installs `config.initial_states` when
    /// given, otherwise waits for bootstrap.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PipelineConfig::validate`]).
    pub fn new(config: PipelineConfig) -> Self {
        config.validate();
        let rng = StdRng::seed_from_u64(config.seed);
        let mut model = Self {
            config,
            rng,
            states: None,
            m_co: None,
            m_c: None,
            m_o: None,
            bootstrap_points: Vec::new(),
            windows_processed: 0,
            state_history: Vec::new(),
            net_memo: RefCell::new(None),
            update_scratch: UpdateScratch::default(),
        };
        if let Some(init) = model.config.initial_states.clone() {
            model.install_states(init);
        }
        model
    }

    fn install_states(&mut self, centroids: Vec<Vec<f64>>) {
        let m = centroids.len();
        self.states = Some(ModelStates::new(centroids, self.config.cluster.clone()));
        self.m_co = Some(
            OnlineHmmEstimator::new(m, m, self.config.beta, self.config.gamma)
                // sentinet-allow(expect-used): learning factors were validated by PipelineConfig::validate
                .expect("validated learning factors"),
        );
        self.m_c = Some(
            // sentinet-allow(expect-used): learning factors were validated by PipelineConfig::validate
            OnlineMarkovEstimator::new(m, self.config.beta).expect("validated learning factors"),
        );
        self.m_o = Some(
            // sentinet-allow(expect-used): learning factors were validated by PipelineConfig::validate
            OnlineMarkovEstimator::new(m, self.config.beta).expect("validated learning factors"),
        );
    }

    /// Grows the global estimators to the current model-state slot
    /// count (no-op when nothing spawned).
    fn grow_global(&mut self) {
        let slots = match &self.states {
            Some(s) => s.num_slots(),
            None => return,
        };
        if let Some(m_co) = self.m_co.as_mut() {
            m_co.grow(slots, slots);
        }
        if let Some(m_c) = self.m_c.as_mut() {
            m_c.grow(slots);
        }
        if let Some(m_o) = self.m_o.as_mut() {
            m_o.grow(slots);
        }
    }

    /// Feeds a window into the bootstrap accumulator when the model
    /// states are not yet installed. Returns `true` once states exist
    /// (so the window should be processed), `false` while still
    /// accumulating (the window is consumed by the bootstrap only).
    pub fn absorb_bootstrap(&mut self, window: &ObservationWindow) -> bool {
        if self.states.is_some() {
            return true;
        }
        // Bootstrap: accumulate sensor representatives until k-means
        // has enough points for the requested initial state count.
        self.bootstrap_points
            .extend(window.sensor_means().into_values());
        let k = self.config.num_initial_states;
        if self.bootstrap_points.len() < k.max(2) {
            return false;
        }
        let points = std::mem::take(&mut self.bootstrap_points);
        let init = kmeans(&points, k, 100, &mut self.rng).centroids;
        self.install_states(init);
        // One bootstrap window rarely spans the environment's full
        // range, so several of the k centroids land on top of each
        // other; run one clustering round immediately so the merge
        // pass collapses them before any state identification.
        self.states
            .as_mut()
            // sentinet-allow(expect-used): the global stages install states at bootstrap, before any decisive window
            .expect("just installed")
            .update(&points);
        true
    }

    /// Spawns a model state at the window mean when no existing state
    /// covers it (an attack can shift the mean into a region no sensor
    /// reading occupies; Eq. 2 must still be able to name it). Returns
    /// `true` when a state spawned — the caller must then grow every
    /// [`SensorRuntime`] to [`GlobalModel::num_slots`].
    pub fn cover_window_mean(&mut self, mean: Option<&[f64]>) -> bool {
        let Some(mean) = mean else {
            return false;
        };
        let spawned = self
            .states
            .as_mut()
            // sentinet-allow(expect-used): the global stages install states at bootstrap, before any decisive window
            .expect("bootstrapped before covering")
            .spawn_if_uncovered(mean)
            .is_some();
        if spawned {
            self.grow_global();
        }
        spawned
    }

    /// Records a decisive window's state pair into the history and the
    /// global `M_CO`/`M_C`/`M_O` estimators.
    pub fn record_decisive(&mut self, correct: usize, observable: usize) {
        self.state_history
            .push((self.windows_processed, correct, observable));
        self.m_co
            .as_mut()
            // sentinet-allow(expect-used): estimators are installed at bootstrap, before any decisive window
            .expect("installed with states")
            .observe(correct, observable)
            // sentinet-allow(expect-used): slots are grown in lockstep with the state set
            .expect("states within estimator dims");
        self.m_c
            .as_mut()
            // sentinet-allow(expect-used): estimators are installed at bootstrap, before any decisive window
            .expect("installed")
            .observe(correct)
            // sentinet-allow(expect-used): slots are grown in lockstep with the state set
            .expect("state in range");
        self.m_o
            .as_mut()
            // sentinet-allow(expect-used): estimators are installed at bootstrap, before any decisive window
            .expect("installed")
            .observe(observable)
            // sentinet-allow(expect-used): slots are grown in lockstep with the state set
            .expect("state in range");
    }

    /// Ends the window: one clustering round (Eqs. 5–6 + merge/spawn)
    /// over the flat sensor representatives (`labels.len() × dims`,
    /// row-major), growth of the global estimators, and the window
    /// counter. `labels` are the Eq. 3 labels the window pass computed
    /// against the current model states — the states do not change
    /// between that labelling and this call, so the round does not
    /// label the points a second time. Returns the clustering events
    /// and whether the slot count grew — the caller must then grow
    /// every [`SensorRuntime`] to [`GlobalModel::num_slots`].
    pub fn finish_window_labeled(
        &mut self,
        points: &[f64],
        labels: &[usize],
    ) -> (Vec<StateEvent>, bool) {
        let before = self.num_slots();
        let events = self
            .states
            .as_mut()
            // sentinet-allow(expect-used): estimators are installed at bootstrap, before any decisive window
            .expect("bootstrapped before finishing")
            .update_labeled(points, labels, &mut self.update_scratch);
        self.grow_global();
        self.windows_processed += 1;
        (events, self.num_slots() != before)
    }

    /// The current model states, once bootstrapped.
    pub fn states(&self) -> Option<&ModelStates> {
        self.states.as_ref()
    }

    /// Current model-state slot count (0 before bootstrap).
    pub fn num_slots(&self) -> usize {
        self.states.as_ref().map_or(0, ModelStates::num_slots)
    }

    /// Number of windows fully processed (post-bootstrap).
    pub fn windows_processed(&self) -> u64 {
        self.windows_processed
    }

    /// The global `M_CO` estimator, once bootstrapped.
    pub fn m_co(&self) -> Option<&OnlineHmmEstimator> {
        self.m_co.as_ref()
    }

    /// The error/attack-free Markov model `M_C` of the environment.
    pub fn correct_model(&self) -> Option<MarkovChain> {
        self.m_c
            .as_ref()
            // sentinet-allow(expect-used): online estimator rows stay row-stochastic, so to_chain cannot fail
            .map(|m| m.to_chain().expect("valid chain"))
    }

    /// The Markov model `M_O` of the observable states.
    pub fn observable_model(&self) -> Option<MarkovChain> {
        self.m_o
            .as_ref()
            // sentinet-allow(expect-used): online estimator rows stay row-stochastic, so to_chain cannot fail
            .map(|m| m.to_chain().expect("valid chain"))
    }

    /// The `(window, correct, observable)` sequence of every decisive
    /// window.
    pub fn state_history(&self) -> &[(u64, usize, usize)] {
        &self.state_history
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Captures the coordinator-side state for checkpointing: the
    /// bootstrap accumulator, decisive-window history, and — once
    /// bootstrapped — the model states with all three global
    /// estimators. The classification memo is a generation-keyed cache
    /// and rebuilds on first use; the RNG is not captured because it is
    /// consumed only by the bootstrap k-means, which by construction
    /// has already run iff `states` is `Some` (and a restored
    /// pre-bootstrap model re-seeds from `config.seed`, replaying the
    /// identical draw sequence).
    pub fn snapshot(&self) -> crate::checkpoint::GlobalSnapshot {
        let states = match (&self.states, &self.m_co, &self.m_c, &self.m_o) {
            (Some(s), Some(m_co), Some(m_c), Some(m_o)) => Some(crate::checkpoint::GlobalStates {
                states: s.snapshot(),
                m_co: m_co.export_state(),
                m_c: m_c.export_state(),
                m_o: m_o.export_state(),
            }),
            _ => None,
        };
        crate::checkpoint::GlobalSnapshot {
            windows_processed: self.windows_processed,
            state_history: self.state_history.clone(),
            bootstrap_points: self.bootstrap_points.clone(),
            states,
        }
    }

    /// Rebuilds the global model from a checkpoint snapshot taken
    /// under the same `config`. The restored model continues
    /// bit-identically: every captured field is a deterministic
    /// function of the processed window sequence, and the only
    /// stochastic component (the bootstrap k-means RNG) is re-seeded
    /// from `config.seed` exactly as [`GlobalModel::new`] does.
    ///
    /// # Errors
    ///
    /// [`crate::checkpoint::CheckpointError::Invalid`] if an embedded
    /// model state fails re-validation (corrupt checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (as [`GlobalModel::new`]).
    pub fn from_snapshot(
        config: PipelineConfig,
        snapshot: crate::checkpoint::GlobalSnapshot,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        config.validate();
        let invalid = crate::checkpoint::CheckpointError::Invalid;
        let (states, m_co, m_c, m_o) = match snapshot.states {
            None => (None, None, None, None),
            Some(gs) => (
                Some(ModelStates::from_snapshot(gs.states).map_err(invalid)?),
                Some(
                    OnlineHmmEstimator::import_state(gs.m_co)
                        .map_err(|e| invalid(e.to_string()))?,
                ),
                Some(
                    OnlineMarkovEstimator::import_state(gs.m_c)
                        .map_err(|e| invalid(e.to_string()))?,
                ),
                Some(
                    OnlineMarkovEstimator::import_state(gs.m_o)
                        .map_err(|e| invalid(e.to_string()))?,
                ),
            ),
        };
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Self {
            config,
            rng,
            states,
            m_co,
            m_c,
            m_o,
            bootstrap_points: snapshot.bootstrap_points,
            windows_processed: snapshot.windows_processed,
            state_history: snapshot.state_history,
            net_memo: RefCell::new(None),
            update_scratch: UpdateScratch::default(),
        })
    }

    /// Identity of the current network model: changes exactly when
    /// `M_CO` or the model states change.
    fn network_stamp(&self) -> Option<(u64, u64)> {
        Some((
            self.m_co.as_ref()?.generation(),
            self.states.as_ref()?.generation(),
        ))
    }

    /// Runs `f` against the up-to-date network memo. Recomputes the
    /// active rows, centroid table, orthogonality report, and network
    /// verdict only when the network stamp moved.
    fn with_net_memo<'a, R>(
        &'a self,
        f: impl FnOnce(&NetMemo, &'a OnlineHmmEstimator) -> R,
    ) -> Option<R> {
        let m_co = self.m_co.as_ref()?;
        let states = self.states.as_ref()?;
        let stamp = (m_co.generation(), states.generation());
        let mut memo = self.net_memo.borrow_mut();
        if !matches!(memo.as_ref(), Some(m) if m.stamp == stamp) {
            let active_rows: Vec<usize> = m_co
                .observation_evidence()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c >= self.config.min_state_evidence)
                .map(|(i, _)| i)
                .collect();
            let centroids: Vec<Option<Vec<f64>>> = (0..states.num_slots())
                .map(|i| states.centroid_any(i).map(<[f64]>::to_vec))
                .collect();
            // Keep the structure cache across refreshes: the Gram
            // analysis stays valid when only the cluster generation
            // moved (centroid drift without an M_CO update).
            let mut structure = memo.take().map(|m| m.structure).unwrap_or_default();
            let report = structure
                .orthogonality(
                    m_co.generation(),
                    m_co.observation(),
                    self.config.ortho,
                    Some(&active_rows),
                )
                .clone();
            let evidence = NetworkEvidence {
                b_co: m_co.observation(),
                active_rows: active_rows.clone(),
                centroids: centroids.clone(),
            };
            let verdict = classify_network_with_report(&evidence, &report, &self.config);
            *memo = Some(NetMemo {
                stamp,
                active_rows,
                centroids,
                verdict,
                structure,
            });
        }
        // sentinet-allow(expect-used): the memo entry is filled on the line above
        Some(f(memo.as_ref().expect("just filled"), m_co))
    }

    /// Network-level evidence for classification, from the memo.
    pub fn network_evidence(&self) -> Option<NetworkEvidence<'_>> {
        self.with_net_memo(|memo, m_co| NetworkEvidence {
            b_co: m_co.observation(),
            active_rows: memo.active_rows.clone(),
            centroids: memo.centroids.clone(),
        })
    }

    /// The memoized network-level verdict: `Some(attack)` when the
    /// `M_CO` structure carries an attack signature.
    pub fn network_attack(&self) -> Option<AttackType> {
        self.with_net_memo(|memo, _| memo.verdict.clone())?
    }

    /// Assembles the sensor-level classification evidence.
    pub fn sensor_evidence<'a>(&self, runtime: &'a SensorRuntime) -> SensorEvidence<'a> {
        let active_rows: Vec<usize> = runtime
            .m_ce
            .observation_evidence()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= self.config.min_state_evidence)
            .map(|(i, _)| i)
            .collect();
        SensorEvidence {
            b_ce: runtime.m_ce.observation(),
            active_rows,
            alarmed: runtime.ever_alarmed,
        }
    }

    fn memo_key(&self, runtime: &SensorRuntime) -> Option<MemoKey> {
        Some(MemoKey {
            m_ce_generation: runtime.m_ce.generation(),
            network_stamp: self.network_stamp()?,
            windows_processed: self.windows_processed,
        })
    }

    /// Classifies one sensor per the paper's Fig. 5 tree, memoized on
    /// the `(M_CE, network, window)` generations.
    ///
    /// `None` — a sensor never seen — is [`Diagnosis::ErrorFree`].
    pub fn classify(&self, runtime: Option<&SensorRuntime>) -> Diagnosis {
        let Some(rt) = runtime else {
            return Diagnosis::ErrorFree;
        };
        if !rt.ever_alarmed {
            return Diagnosis::ErrorFree;
        }
        let Some(key) = self.memo_key(rt) else {
            return Diagnosis::ErrorFree;
        };
        if let Some(memo) = rt.memo.borrow().as_ref() {
            if memo.key == key {
                return memo.diagnosis.clone();
            }
        }
        let diagnosis = match self.network_attack() {
            Some(attack) => Diagnosis::Attack(attack),
            None => {
                // sentinet-allow(expect-used): the generation stamp check guarantees the evidence entry exists
                let net = self.network_evidence().expect("stamp checked");
                let ev = self.sensor_evidence(rt);
                classify_sensor(&net, &ev, &self.config)
            }
        };
        *rt.memo.borrow_mut() = Some(DiagnosisMemo {
            key,
            diagnosis: diagnosis.clone(),
            confidence: None,
        });
        diagnosis
    }

    /// [`GlobalModel::classify`] plus the verdict's confidence (see
    /// [`crate::confidence`]), memoized alongside the diagnosis.
    pub fn classify_with_confidence(&self, runtime: Option<&SensorRuntime>) -> (Diagnosis, f64) {
        let diagnosis = self.classify(runtime);
        let key = runtime.and_then(|rt| self.memo_key(rt));
        if let (Some(rt), Some(key)) = (runtime, key) {
            if let Some(memo) = rt.memo.borrow().as_ref() {
                if memo.key == key {
                    if let Some(confidence) = memo.confidence {
                        return (memo.diagnosis.clone(), confidence);
                    }
                }
            }
        }
        let Some(net) = self.network_evidence() else {
            return (diagnosis, 0.0);
        };
        let sensor_ev = runtime.map(|rt| self.sensor_evidence(rt));
        let confidence = crate::confidence::diagnosis_confidence(
            &net,
            sensor_ev.as_ref(),
            &diagnosis,
            self.windows_processed,
            &self.config,
        );
        if let (Some(rt), Some(key)) = (runtime, key) {
            *rt.memo.borrow_mut() = Some(DiagnosisMemo {
                key,
                diagnosis: diagnosis.clone(),
                confidence: Some(confidence),
            });
        }
        (diagnosis, confidence)
    }

    /// Offline Viterbi smoothing of the recorded observable sequence
    /// under the learned `M_CO` (see
    /// [`Pipeline::smoothed_correct_states`](crate::Pipeline::smoothed_correct_states)).
    pub fn smoothed_correct_states(&self) -> Option<Vec<usize>> {
        let m_co = self.m_co.as_ref()?;
        if self.state_history.is_empty() {
            return None;
        }
        let observables: Vec<usize> = self.state_history.iter().map(|&(_, _, o)| o).collect();
        let hmm = m_co.to_hmm().ok()?;
        hmm.viterbi(&observables).ok().map(|v| v.states)
    }
}
