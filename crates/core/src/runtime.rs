//! The two halves of the detection pipeline's state:
//!
//! - **per-sensor** — alarm filtering, track management, `M_CE`
//!   estimation — which touches only one sensor's state
//!   ([`SensorRuntime`]);
//! - **global** — clustering, `M_CO` estimation (`M_C` is `M_CO`'s
//!   transition half), network-level classification
//!   ([`GlobalModel`]).
//!
//! The [`Pipeline`](crate::Pipeline)'s window pass drives both: Eqs.
//! 2–4 need every sensor's label, then every voter takes its
//! [`SensorRuntime::step`] in ascending id order.
//!
//! Each verdict comes from one walk of the Fig. 5 tree
//! ([`crate::classify`]), with the records that decided it. The network
//! half of that walk — the centroids, `B^CO`'s attack and clean records
//! — is cached behind the `M_CO` and model-state generations (see
//! [`OnlineHmmEstimator::generation`]), so every sensor of one
//! `classify_all` shares one network walk; a sensor's own half reads
//! its `M_CE` afresh on every call.

use crate::checkpoint::MceSnapshot;
use crate::classify::{
    confidence, evidenced_rows, network, walk, AttackType, Decision, Decisions, Diagnosis,
};
use crate::config::{FilterPolicy, PipelineConfig};
use crate::window::ObservationWindow;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_cluster::{kmeans, ModelStates, StateEvent, UpdateScratch};
use sentinet_filter::{AlarmFilter, KOfNFilter, Sprt, SprtAlarmFilter};
use sentinet_hmm::structure::StructureCache;
use sentinet_hmm::{EstimatorState, MarkovChain, OnlineHmmEstimator};
use std::cell::{OnceCell, RefCell};

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

/// A run of a sensor's raw-alarm history: `windows` consecutive
/// windows from `first`, each with the raw alarm `raw`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlarmRun {
    /// The run's first window.
    pub first: u64,
    /// How many windows it spans, at least one.
    pub windows: u64,
    /// Whether the sensor disagreed with the correct state in them.
    pub raw: bool,
}

impl AlarmRun {
    /// The window after the run's last; `None` past `u64::MAX`.
    pub(crate) fn end(&self) -> Option<u64> {
        self.first.checked_add(self.windows)
    }

    /// Takes `next` into this run when it continues it: the same flag
    /// from the window after this run's last.
    pub(crate) fn join(&mut self, next: &AlarmRun) -> bool {
        let joins = self.raw == next.raw && self.end() == Some(next.first);
        if joins {
            self.windows = self.windows.saturating_add(next.windows);
        }
        joins
    }
}

/// What one [`SensorRuntime::step`] produced for the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorStep {
    /// The sensor's label disagreed with the correct state.
    pub raw: bool,
    /// The filtered alarm is raised after this window.
    pub filtered: bool,
}

/// Per-sensor pipeline state: alarm filter, error/attack tracks, and
/// the sensor's `M_CE` estimator. Whether a track is open, and whether
/// a filtered alarm was ever raised, are read off the tracks.
///
/// `M_CE` is **B** alone: the classification never reads its **A**, so
/// it is built without a chain. It learns only while a track is open,
/// so the paper estimates it per *suspect* sensor; until a sensor's
/// first track it is the [`IdentityPrior`], and the runtime holds only
/// that: the slot count, a generation and γ. A spawn bumps the first
/// two; the first observe with a track open builds the estimator, equal
/// to one grown from the sensor's first window. An `M_CE` without
/// visits — unbuilt, or built by a read — is checkpointed as its prior.
#[derive(Debug)]
pub struct SensorRuntime {
    filter: Box<dyn AlarmFilter>,
    /// Built at the first track (or on read); empty while `prior`
    /// describes it.
    m_ce: OnceCell<OnlineHmmEstimator>,
    /// Grown with the sensor, built or not: its slots are `M_CE`'s.
    prior: IdentityPrior,
    /// Strictly ascending windows; only the last track may be open.
    tracks: Vec<TrackRecord>,
    /// The raw-alarm history as maximal runs, strictly ascending: what
    /// the runtime holds and a restore point writes.
    raw_runs: Vec<AlarmRun>,
    /// The same history a `(window, raw)` pair a window, expanded at
    /// its first read and kept up to date from then on.
    raw_history: OnceCell<Vec<(u64, bool)>>,
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
            m_ce: OnceCell::new(),
            prior: IdentityPrior {
                slots: num_slots,
                gamma: config.gamma,
                generation: 0,
            },
            tracks: Vec::new(),
            raw_runs: Vec::new(),
            raw_history: OnceCell::new(),
        }
    }

    /// Grows the `M_CE` estimator to `num_slots` model-state slots
    /// (no-op when nothing spawned); before the first track, a counter
    /// bump.
    pub fn grow(&mut self, num_slots: usize) {
        self.prior.grow(num_slots);
        if let Some(m_ce) = self.m_ce.get_mut() {
            m_ce.grow(num_slots, num_slots + 1);
        }
    }

    /// One per-sensor step for a *decisive* window: records the raw
    /// alarm, runs the filter, manages the error/attack track, and
    /// feeds `M_CE` while a track is open.
    pub fn step(&mut self, window_index: u64, label: usize, correct: usize) -> SensorStep {
        let raw = label != correct;
        let run = AlarmRun {
            first: window_index,
            windows: 1,
            raw,
        };
        if !self.raw_runs.last_mut().is_some_and(|last| last.join(&run)) {
            self.raw_runs.push(run);
        }
        if let Some(history) = self.raw_history.get_mut() {
            history.push((window_index, raw));
        }
        let filtered = self.filter.push(raw);
        let open = self.tracks.last_mut().filter(|t| t.closed.is_none());
        match (open, filtered) {
            (None, true) => self.tracks.push(TrackRecord {
                opened: window_index,
                closed: None,
            }),
            (Some(track), false) => track.closed = Some(window_index),
            _ => {}
        }
        // A track is open after this window exactly when the filtered
        // alarm is up.
        if filtered {
            let symbol = if raw { label + 1 } else { BOT_SYMBOL };
            self.m_ce_mut()
                .observe(correct, symbol)
                // sentinet-allow(expect-used): symbol and state counts are sized by grow before observe runs
                .expect("state and symbol within estimator dims");
        }
        SensorStep { raw, filtered }
    }

    /// `M_CE` for an update, built from the prior the first time.
    fn m_ce_mut(&mut self) -> &mut OnlineHmmEstimator {
        if self.m_ce.get().is_none() {
            self.m_ce = OnceCell::from(self.prior.build());
        }
        // sentinet-allow(expect-used): filled on the line above
        self.m_ce.get_mut().expect("built")
    }

    /// Captures the complete per-sensor state for checkpointing. The
    /// snapshot is plain data (see [`crate::checkpoint`]); restoring it
    /// with [`SensorRuntime::from_snapshot`] yields a runtime whose
    /// behaviour — filter outputs, `M_CE` updates, diagnoses — is
    /// bit-identical from this point on.
    pub fn snapshot(&self) -> crate::checkpoint::SensorSnapshot {
        let visited =
            (self.m_ce.get()).filter(|m_ce| m_ce.observation_evidence().iter().any(|&v| v > 0));
        crate::checkpoint::SensorSnapshot {
            filter: self.filter.snapshot(),
            m_ce: visited.map_or(MceSnapshot::Prior(self.prior), |m_ce| {
                MceSnapshot::Built(m_ce.export_state())
            }),
            tracks: self.tracks.clone(),
            raw_runs: self.raw_runs.clone(),
        }
    }

    /// Rebuilds a runtime from a checkpoint snapshot. An `M_CE` written
    /// as its prior stays unbuilt, as it was when the snapshot was
    /// taken.
    ///
    /// # Errors
    ///
    /// [`crate::checkpoint::CheckpointError::Invalid`] if the embedded
    /// estimator state or alarm-filter bounds fail re-validation
    /// (corrupt checkpoint), if the `M_CE` is no prior or estimator a
    /// sensor could hold, or if the tracks are no list a sensor could
    /// write: windows not strictly ascending (opened < closed < next
    /// opened), or a track open before the last; or if the raw-alarm
    /// runs are not maximal and strictly ascending, each of at least
    /// one window and ending by `u64::MAX`.
    pub fn from_snapshot(
        snapshot: crate::checkpoint::SensorSnapshot,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let invalid = crate::checkpoint::CheckpointError::Invalid;
        let (m_ce, prior) = match snapshot.m_ce {
            // What `IdentityPrior::build` needs to succeed.
            MceSnapshot::Prior(p) if p.slots > 0 && p.gamma > 0.0 && p.gamma < 1.0 => (None, p),
            // The `M_CE` a track builds: no chain, a visit, a symbol per
            // slot and ⊥.
            MceSnapshot::Built(m)
                if m.chain.is_none()
                    && m.visits.iter().any(|&v| v > 0)
                    && m.b.iter().all(|row| row.len() == m.b.len() + 1) =>
            {
                let prior = IdentityPrior {
                    slots: m.b.len(),
                    gamma: m.gamma,
                    generation: m.generation,
                };
                let m_ce = OnlineHmmEstimator::import_state(m);
                (Some(m_ce.map_err(|e| invalid(e.to_string()))?), prior)
            }
            _ => return Err(invalid("an M_CE unlike any a sensor writes".into())),
        };
        let tracks = snapshot.tracks;
        let closed_before_last = tracks.iter().rev().skip(1).all(|t| t.closed.is_some());
        let marks = tracks
            .iter()
            .flat_map(|t| std::iter::once(t.opened).chain(t.closed));
        if !(closed_before_last && marks.is_sorted_by(|a, b| a < b)) {
            return Err(invalid("tracks unlike any a sensor writes".into()));
        }
        let runs = snapshot.raw_runs;
        let after = |p: &[AlarmRun]| {
            p[0].end()
                .is_some_and(|end| end < p[1].first || end == p[1].first && p[0].raw != p[1].raw)
        };
        if !(runs.iter().all(|r| r.windows > 0 && r.end().is_some()) && runs.windows(2).all(after))
        {
            return Err(invalid("raw-alarm runs unlike any a sensor writes".into()));
        }
        Ok(Self {
            filter: snapshot.filter.restore().map_err(invalid)?,
            m_ce: m_ce.map_or_else(OnceCell::new, OnceCell::from),
            prior,
            tracks,
            raw_runs: runs,
            raw_history: OnceCell::new(),
        })
    }

    /// The sensor's `M_CE` estimator, built from its prior on first
    /// read if no track has built it.
    pub fn m_ce(&self) -> &OnlineHmmEstimator {
        self.m_ce.get_or_init(|| self.prior.build())
    }

    /// Whether the sensor's `M_CE` is built: a track opened, or
    /// [`SensorRuntime::m_ce`] was read. An unbuilt one is its prior.
    pub fn m_ce_built(&self) -> bool {
        self.m_ce.get().is_some()
    }

    /// `M_CE`'s model-state slots, without building it.
    pub(crate) fn m_ce_slots(&self) -> usize {
        self.prior.slots
    }

    /// The raw-alarm history as `(window, raw)` pairs, expanded from
    /// its runs at the first read and held from then on.
    pub fn raw_history(&self) -> &[(u64, bool)] {
        self.raw_history.get_or_init(|| {
            let runs = self.raw_runs.iter();
            runs.flat_map(|r| (0..r.windows).map(move |i| (r.first + i, r.raw)))
                .collect()
        })
    }

    /// The raw-alarm history as its maximal runs.
    pub(crate) fn raw_runs(&self) -> &[AlarmRun] {
        &self.raw_runs
    }

    /// The error/attack tracks opened for this sensor.
    pub fn tracks(&self) -> &[TrackRecord] {
        &self.tracks
    }

    /// Whether a filtered alarm was ever raised: the first one opened
    /// a track.
    pub fn ever_alarmed(&self) -> bool {
        !self.tracks.is_empty()
    }
}

/// An `M_CE` without visits: the identity prior over `slots` hidden
/// states — hidden state `i`'s **B** row one-hot on symbol `i + 1`
/// (symbol 0 is ⊥) — with its γ and the generation an estimator grown
/// alongside would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentityPrior {
    /// Model-state slots.
    pub slots: usize,
    /// Observation learning factor γ.
    pub gamma: f64,
    /// Dimension-changing grows since the sensor was first seen.
    pub generation: u64,
}

impl IdentityPrior {
    /// A spawn, counted as [`OnlineHmmEstimator::grow`] counts it: a
    /// generation for a call that adds a slot.
    fn grow(&mut self, slots: usize) {
        if slots > self.slots {
            self.slots = slots;
            self.generation += 1;
        }
    }

    /// The estimator the prior stands for: the one way an `M_CE` is
    /// made.
    fn build(&self) -> OnlineHmmEstimator {
        let n = self.slots;
        let b = (0..n)
            .map(|i| {
                let mut row = vec![0.0; n + 1];
                row[i + 1] = 1.0;
                row
            })
            .collect();
        let state = EstimatorState {
            chain: None,
            b,
            gamma: self.gamma,
            visits: vec![0; n],
            generation: self.generation,
        };
        OnlineHmmEstimator::import_state(state)
            // sentinet-allow(expect-used): one-hot rows are stochastic, and γ and the slot count were validated by PipelineConfig::validate or SensorRuntime::from_snapshot
            .expect("the identity prior imports")
    }
}

/// The network half of the walk, memoized on the `(M_CO, model
/// states)` generation pair.
#[derive(Debug)]
pub(crate) struct NetMemo {
    stamp: (u64, u64),
    structure: StructureCache,
    /// Current model-state centroids by slot (inactive slots `None`).
    pub(crate) centroids: Vec<Option<Vec<f64>>>,
    /// The attack `B^CO` carries, with its deciding record.
    pub(crate) attack: Option<(AttackType, Decision)>,
    /// `B^CO`'s clean record, which backs an `ErrorFree` verdict.
    pub(crate) clean: Option<Decision>,
}

/// The global half of the pipeline: model states,
/// bootstrap accumulation, the `M_CO` estimator (`M_C` is its
/// transition half), and memoized network classification.
#[derive(Debug)]
pub struct GlobalModel {
    config: PipelineConfig,
    rng: StdRng,
    states: Option<ModelStates>,
    m_co: Option<OnlineHmmEstimator>,
    bootstrap_points: Vec<Vec<f64>>,
    windows_processed: u64,
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
            bootstrap_points: Vec::new(),
            windows_processed: 0,
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
    }

    /// Grows `M_CO` to the current model-state slot count (no-op when
    /// nothing spawned).
    fn grow_global(&mut self) {
        let slots = self.num_slots();
        if let Some(m_co) = self.m_co.as_mut() {
            m_co.grow(slots, slots);
        }
    }

    /// Feeds a window into the bootstrap accumulator when the model
    /// states are not yet installed. Returns `true` once states exist
    /// (so the window should be processed), `false` while still
    /// accumulating (the window is consumed by the bootstrap only).
    pub(crate) fn absorb_bootstrap(&mut self, window: &ObservationWindow) -> bool {
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
    pub(crate) fn cover_window_mean(&mut self, mean: &[f64]) -> bool {
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

    /// Records a decisive window's state pair into `M_CO`.
    pub(crate) fn record_decisive(&mut self, correct: usize, observable: usize) {
        self.m_co
            .as_mut()
            // sentinet-allow(expect-used): estimators are installed at bootstrap, before any decisive window
            .expect("installed with states")
            .observe(correct, observable)
            // sentinet-allow(expect-used): slots are grown in lockstep with the state set
            .expect("states within estimator dims");
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
    pub(crate) fn finish_window_labeled(
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

    /// The readings' attribute count, once states or bootstrap points
    /// fix it.
    pub(crate) fn dims(&self) -> Option<usize> {
        let states = self.states.as_ref().map(ModelStates::dims);
        states.or(self.bootstrap_points.first().map(Vec::len))
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

    /// The error/attack-free Markov model `M_C` of the environment:
    /// `M_CO`'s transition half, estimated from the same `c_i`.
    pub fn correct_model(&self) -> Option<MarkovChain> {
        self.m_co.as_ref()?.markov_chain()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Captures the global state for checkpointing: the
    /// window count, the bootstrap accumulator, and — once
    /// bootstrapped — the model states with `M_CO`.
    /// The classification memo is a generation-keyed cache and
    /// rebuilds on first use; the RNG is not captured because it is
    /// consumed only by the bootstrap k-means, which by construction
    /// has already run iff `states` is `Some` (and a restored
    /// pre-bootstrap model re-seeds from `config.seed`, replaying the
    /// identical draw sequence).
    pub fn snapshot(&self) -> crate::checkpoint::GlobalSnapshot {
        let states = match (&self.states, &self.m_co) {
            (Some(s), Some(m_co)) => Some(crate::checkpoint::GlobalStates {
                states: s.snapshot(),
                m_co: m_co.export_state(),
            }),
            _ => None,
        };
        crate::checkpoint::GlobalSnapshot {
            windows_processed: self.windows_processed,
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
    /// model state fails re-validation (corrupt checkpoint), or `M_CO`
    /// is not a chain over the model-state slots.
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
        let (states, m_co) = match snapshot.states {
            None => (None, None),
            Some(gs) => {
                let states = ModelStates::from_snapshot(gs.states).map_err(invalid)?;
                let m_co = OnlineHmmEstimator::import_state(gs.m_co)
                    .map_err(|e| invalid(e.to_string()))?;
                // `M_CO` is a chain over the slots emitting one symbol a
                // slot: any other shape would panic at the next window.
                let slots = states.num_slots();
                let shape = (
                    m_co.transition().is_some(),
                    m_co.num_states(),
                    m_co.num_symbols(),
                );
                if shape != (true, slots, slots) {
                    let why = format!("an M_CO not sized to the {slots} model-state slots");
                    return Err(invalid(why));
                }
                (Some(states), Some(m_co))
            }
        };
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Self {
            config,
            rng,
            states,
            m_co,
            bootstrap_points: snapshot.bootstrap_points,
            windows_processed: snapshot.windows_processed,
            net_memo: RefCell::new(None),
            update_scratch: UpdateScratch::default(),
        })
    }

    /// Runs `f` against the up-to-date network memo, walking the
    /// network half again only when the network stamp moved.
    fn with_net_memo<R>(&self, f: impl FnOnce(&NetMemo) -> R) -> Option<R> {
        let m_co = self.m_co.as_ref()?;
        let states = self.states.as_ref()?;
        let stamp = (m_co.generation(), states.generation());
        let mut memo = self.net_memo.borrow_mut();
        if !matches!(memo.as_ref(), Some(m) if m.stamp == stamp) {
            let b = m_co.observation();
            let rows: Vec<usize> = evidenced_rows(m_co).collect();
            let centroids: Vec<Option<Vec<f64>>> = (0..states.num_slots())
                .map(|i| states.centroid_any(i).map(<[f64]>::to_vec))
                .collect();
            // Keep the structure cache across refreshes: the Gram
            // analysis stays valid when only the cluster generation
            // moved (centroid drift without an M_CO update).
            let mut structure = memo.take().map(|m| m.structure).unwrap_or_default();
            let ortho = self.config.ortho;
            let report = structure.orthogonality(m_co.generation(), b, ortho, Some(&rows));
            let (attack, clean) = network(b, &rows, report, &centroids, ortho.max_offdiag);
            *memo = Some(NetMemo {
                stamp,
                structure,
                centroids,
                attack,
                clean,
            });
        }
        // sentinet-allow(expect-used): the memo entry is filled on the line above
        Some(f(memo.as_ref().expect("just filled")))
    }

    /// The memoized network-level verdict: `Some(attack)` when the
    /// `M_CO` structure carries an attack signature.
    pub fn network_attack(&self) -> Option<AttackType> {
        self.with_net_memo(|memo| memo.attack.as_ref().map(|(attack, _)| attack.clone()))?
    }

    /// Classifies one sensor per the paper's Fig. 5 tree.
    ///
    /// `None` — a sensor never seen — is [`Diagnosis::ErrorFree`].
    pub fn classify(&self, runtime: Option<&SensorRuntime>) -> Diagnosis {
        self.walk(runtime).0
    }

    /// [`GlobalModel::classify`] plus the verdict's confidence (see
    /// [`crate::classify`]).
    pub fn classify_with_confidence(&self, runtime: Option<&SensorRuntime>) -> (Diagnosis, f64) {
        let (diagnosis, decisions) = self.walk(runtime);
        (diagnosis, confidence(&decisions))
    }

    /// The Fig. 5 walk for one sensor: the leaf and the records that
    /// decided it, the network half memoized on the `(M_CO, model
    /// states)` generations. Before bootstrap there is no network model
    /// to walk, and nothing backs the `ErrorFree` leaf.
    pub(crate) fn walk(&self, runtime: Option<&SensorRuntime>) -> (Diagnosis, Decisions) {
        let walked =
            self.with_net_memo(|net| walk(net, runtime, self.windows_processed, &self.config));
        walked.unwrap_or((Diagnosis::ErrorFree, [None; 2]))
    }
}
