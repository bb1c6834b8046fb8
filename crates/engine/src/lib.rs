//! `sentinet-engine` — sharded multi-collector execution of the
//! detection pipeline.
//!
//! The serial [`sentinet_core::Pipeline`] interleaves two kinds of
//! per-window work:
//!
//! - **per-sensor stages** — alarm filter update, `M_CE` online
//!   estimation, error/attack track management — which touch only one
//!   sensor's state ([`sentinet_core::SensorRuntime`]);
//! - **global stages** — clustering, observable/correct state
//!   identification, `M_CO`/`M_C`/`M_O` estimation, majority voting —
//!   which need every sensor's vote ([`sentinet_core::GlobalModel`]).
//!
//! The [`Engine`] shards the per-sensor stages across `num_shards`
//! worker threads (sensor *s* lives on shard `s mod num_shards` for
//! its whole life) while a single coordinator runs the global stages.
//! Per window the coordinator hands each shard a batched **label** job
//! (model-state snapshot + that shard's sensor representatives) and,
//! on decisive windows, a batched **step** job; explicit **grow** jobs
//! keep worker-side estimators sized to the coordinator's model-state
//! slots.
//!
//! The majority vote itself cannot be sharded: Eq. 4 elects the state
//! backed by the most sensors *across the whole network*, and every
//! subsequent stage (alarm generation, `M_CO`/`M_CE` updates) consumes
//! the elected state — so the vote is a per-window barrier between the
//! parallel label stage and the parallel step stage.
//!
//! Because every per-sensor float operation happens in the same order
//! on exactly one thread, and the global stages run unchanged on the
//! coordinator, the engine's output is **bit-for-bit identical** to
//! the serial pipeline at any shard count; `num_shards = 1` runs
//! inline without spawning threads at all.
//!
//! Multi-shard runs are **supervised** (see [`supervisor`]): each
//! worker is checkpointed every window, a crashed worker is restored
//! from its checkpoint and replayed, and a worker that keeps crashing
//! is quarantined — the run then completes degraded
//! ([`EngineRun::degraded`]) instead of aborting. The [`chaos`] module
//! injects deterministic worker faults through the same seam so the
//! recovery machinery is testable; the headline invariant — any fault
//! plan within the restart budget yields output bit-identical to the
//! uninterrupted serial pipeline — is checked by the `xtask` model
//! checker's fault schedules.
//!
//! The worker/coordinator message protocol is public in [`protocol`],
//! and the coordinator loop is generic over [`ShardBackend`], so the
//! `xtask` shard-schedule model checker can drive the *same* stage
//! code under every worker/coordinator interleaving and assert the
//! majority-vote barrier yields bit-identical outcomes.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use sentinet_core::PipelineConfig;
//! use sentinet_engine::Engine;
//! use sentinet_sim::{gdi, simulate};
//!
//! let cfg = gdi::day_config();
//! let trace = simulate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(1));
//! let engine = Engine::new(PipelineConfig::default(), cfg.sample_period, 2);
//! let run = engine.process_trace(&trace).expect("workers healthy");
//! assert!(!run.outcomes().is_empty());
//! assert!(run.degraded().is_none());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use sentinet_cluster::ModelStates;
use sentinet_core::classify::{AttackType, Diagnosis};
use sentinet_core::{
    majority_vote, DegradedStatus, GlobalModel, ObservationWindow, PipelineConfig, PipelineReport,
    RecoveryPlan, SensorRuntime, TrackRecord, WindowOutcome, WindowScratch, Windower,
};
use sentinet_hmm::OnlineHmmEstimator;
use sentinet_sim::{SensorId, Trace};
use std::collections::BTreeMap;
use std::fmt;

pub mod chaos;
pub mod supervisor;

pub use chaos::{corrupt_frames, corrupt_records, ChaosPlan, FaultKind, FaultPoint, FaultSpec};
pub use supervisor::SupervisorConfig;

pub mod protocol {
    //! The worker/coordinator message protocol of the sharded engine.
    //!
    //! One [`ShardWorker`] lives on each worker thread and owns the
    //! [`SensorRuntime`]s of its shard. The coordinator sends [`Job`]s,
    //! the worker answers with [`Reply`]s, and the coordinator folds
    //! arrival-ordered replies back into the serial pipeline's shapes
    //! via [`collect_labels`] / [`collect_steps`].
    //!
    //! Everything here is deterministic given a delivery order, which
    //! is exactly what the `xtask` model checker exploits: it replays
    //! the protocol under every worker/coordinator schedule and asserts
    //! the fold is order-insensitive.

    use super::*;
    use sentinet_core::{CheckpointError, SensorSnapshot};

    /// Work dispatched from the coordinator to one shard.
    ///
    /// `Clone` so the supervisor can keep a replay log and re-deliver
    /// an in-flight job to a restarted worker.
    #[derive(Debug, Clone)]
    pub enum Job {
        /// Label each representative against a model-state snapshot.
        Label {
            /// Snapshot of the coordinator's model states.
            states: ModelStates,
            /// This shard's `(sensor, window-mean)` representatives.
            means: Vec<(SensorId, Vec<f64>)>,
        },
        /// Run the per-sensor step of a decisive window.
        Step {
            /// Index of the window being stepped.
            window_index: u64,
            /// The majority-elected correct state `c_i`.
            correct: usize,
            /// Model-state slot count (sizes new estimators).
            num_slots: usize,
            /// This shard's `(sensor, label)` pairs.
            labels: Vec<(SensorId, usize)>,
        },
        /// Grow every sensor estimator to the new slot count.
        Grow {
            /// New model-state slot count.
            num_slots: usize,
        },
        /// Snapshot every sensor's state for the supervisor checkpoint.
        Snapshot,
        /// Hand the shard's sensors back and exit.
        Finish,
    }

    /// A shard's answer to a [`Job`].
    #[derive(Debug)]
    pub enum Reply {
        /// Labels for a [`Job::Label`]; `None` marks a sensor outside
        /// every active model state.
        Labels(Vec<(SensorId, Option<usize>)>),
        /// Alarm lists for a [`Job::Step`], in the shard's ascending
        /// sensor order.
        Stepped {
            /// Sensors whose label disagreed with the correct state.
            raw: Vec<SensorId>,
            /// Sensors whose filtered alarm is raised after this window.
            filtered: Vec<SensorId>,
        },
        /// Per-sensor checkpoints, answering [`Job::Snapshot`].
        Snapshot(Vec<(SensorId, SensorSnapshot)>),
        /// The shard's sensors, answering [`Job::Finish`].
        Done(BTreeMap<SensorId, SensorRuntime>),
    }

    /// The shard that owns sensor `id` under `num_shards` shards.
    pub fn shard_of(id: SensorId, num_shards: usize) -> usize {
        id.0 as usize % num_shards
    }

    /// The per-sensor half of the engine: executes [`Job`]s against the
    /// shard's own [`SensorRuntime`]s. Used verbatim by the engine's
    /// worker threads and by the `xtask` schedule explorer.
    #[derive(Debug)]
    pub struct ShardWorker {
        config: PipelineConfig,
        sensors: BTreeMap<SensorId, SensorRuntime>,
    }

    impl ShardWorker {
        /// Creates a worker with no sensors yet (they appear on their
        /// first [`Job::Step`]).
        pub fn new(config: PipelineConfig) -> Self {
            Self {
                config,
                sensors: BTreeMap::new(),
            }
        }

        /// Rebuilds a worker from checkpointed sensor state, as taken
        /// by [`ShardWorker::snapshot`] — the supervisor's restart
        /// path.
        ///
        /// # Errors
        ///
        /// [`CheckpointError`] if any snapshot is internally
        /// inconsistent (see
        /// [`SensorRuntime::from_snapshot`](sentinet_core::SensorRuntime::from_snapshot)).
        pub fn from_snapshot(
            config: PipelineConfig,
            snapshots: Vec<(SensorId, SensorSnapshot)>,
        ) -> Result<Self, CheckpointError> {
            let mut sensors = BTreeMap::new();
            for (id, snap) in snapshots {
                sensors.insert(id, SensorRuntime::from_snapshot(snap)?);
            }
            Ok(Self { config, sensors })
        }

        /// Checkpoints every sensor the shard owns, in ascending
        /// sensor order.
        pub fn snapshot(&self) -> Vec<(SensorId, SensorSnapshot)> {
            self.sensors
                .iter()
                .map(|(&id, rt)| (id, rt.snapshot()))
                .collect()
        }

        /// Executes one job. [`Job::Grow`] has no reply; every other
        /// job answers with exactly one [`Reply`]. After [`Job::Finish`]
        /// the worker is empty and should not be reused.
        pub fn handle(&mut self, job: Job) -> Option<Reply> {
            match job {
                Job::Label { states, means } => {
                    let labels = means
                        .iter()
                        .map(|(id, mean)| (*id, states.nearest(mean).map(|(s, _)| s)))
                        .collect();
                    Some(Reply::Labels(labels))
                }
                Job::Step {
                    window_index,
                    correct,
                    num_slots,
                    labels,
                } => {
                    let mut raw = Vec::new();
                    let mut filtered = Vec::new();
                    for (id, label) in labels {
                        let sensor = self
                            .sensors
                            .entry(id)
                            .or_insert_with(|| SensorRuntime::new(&self.config, num_slots));
                        let step = sensor.step(window_index, label, correct);
                        if step.raw {
                            raw.push(id);
                        }
                        if step.filtered {
                            filtered.push(id);
                        }
                    }
                    Some(Reply::Stepped { raw, filtered })
                }
                Job::Grow { num_slots } => {
                    for s in self.sensors.values_mut() {
                        s.grow(num_slots);
                    }
                    None
                }
                Job::Snapshot => Some(Reply::Snapshot(self.snapshot())),
                Job::Finish => Some(Reply::Done(std::mem::take(&mut self.sensors))),
            }
        }

        /// The shard's sensors (for post-run inspection).
        pub fn sensors(&self) -> &BTreeMap<SensorId, SensorRuntime> {
            &self.sensors
        }

        /// Consumes the worker, returning its sensors.
        pub fn into_sensors(self) -> BTreeMap<SensorId, SensorRuntime> {
            self.sensors
        }
    }

    /// Folds label replies (in arrival order) into the serial
    /// pipeline's label map. Returns `None` if any sensor fell outside
    /// every active model state — the serial pipeline then drops the
    /// whole window, so the engine must too — or if a reply is not a
    /// [`Reply::Labels`] (protocol corruption; unreachable with the
    /// engine's own workers).
    ///
    /// The fold is insensitive to arrival order: labels land in a
    /// [`BTreeMap`] keyed by sensor. The model checker asserts this
    /// under every schedule.
    pub fn collect_labels(replies: Vec<Reply>) -> Option<BTreeMap<SensorId, usize>> {
        let mut labels = BTreeMap::new();
        for reply in replies {
            let Reply::Labels(batch) = reply else {
                debug_assert!(false, "label barrier answered with a non-label reply");
                return None;
            };
            for (id, label) in batch {
                labels.insert(id, label?);
            }
        }
        Some(labels)
    }

    /// Folds step replies (in arrival order) into ascending-sensor
    /// alarm lists — the serial pipeline's iteration order. The final
    /// sort is what makes the fold arrival-order-insensitive; replies
    /// that are not [`Reply::Stepped`] are ignored (protocol
    /// corruption; unreachable with the engine's own workers).
    pub fn collect_steps(replies: Vec<Reply>) -> (Vec<SensorId>, Vec<SensorId>) {
        let mut raw_alarms = Vec::new();
        let mut filtered_alarms = Vec::new();
        for reply in replies {
            let Reply::Stepped { raw, filtered } = reply else {
                debug_assert!(false, "step barrier answered with a non-step reply");
                continue;
            };
            raw_alarms.extend(raw);
            filtered_alarms.extend(filtered);
        }
        raw_alarms.sort_unstable();
        filtered_alarms.sort_unstable();
        (raw_alarms, filtered_alarms)
    }
}

/// A failure of the shard protocol that the supervisor could not hide.
///
/// With the supervised backend these are edge conditions — worker
/// crashes are absorbed by restart/quarantine — but the coordinator
/// loop is typed to surface them instead of silently answering neutral
/// values as the pre-supervisor engine did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A worker vanished and could not be restored or quarantined.
    WorkerLost {
        /// The shard whose worker was lost.
        shard: usize,
    },
    /// A reply violated the protocol (wrong variant for the barrier).
    Protocol {
        /// The offending shard.
        shard: usize,
        /// What the coordinator expected vs. saw.
        what: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::WorkerLost { shard } => {
                write!(f, "shard {shard}: worker lost beyond recovery")
            }
            ShardError::Protocol { shard, what } => {
                write!(f, "shard {shard}: protocol violation: {what}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// How the coordinator executes per-sensor work. The engine ships two
/// implementations — inline (serial, `num_shards = 1`) and the
/// supervised thread pool — and the `xtask` model checker adds a
/// schedule-exploring third, all driven by the same [`window_pass`]
/// coordinator code.
pub trait ShardBackend {
    /// Labels every representative; `Ok(None)` if any sensor falls
    /// outside all active model states (the serial pipeline then drops
    /// the whole window, so the engine must too).
    ///
    /// # Errors
    ///
    /// [`ShardError`] if a shard's worker failed beyond recovery.
    fn label(
        &mut self,
        states: &ModelStates,
        representatives: &BTreeMap<SensorId, Vec<f64>>,
    ) -> Result<Option<BTreeMap<SensorId, usize>>, ShardError>;

    /// Runs the per-sensor step of a decisive window; returns the raw
    /// and filtered alarm lists in ascending sensor order (the serial
    /// pipeline's iteration order).
    ///
    /// # Errors
    ///
    /// [`ShardError`] if a shard's worker failed beyond recovery.
    fn step(
        &mut self,
        window_index: u64,
        correct: usize,
        num_slots: usize,
        labels: &BTreeMap<SensorId, usize>,
    ) -> Result<(Vec<SensorId>, Vec<SensorId>), ShardError>;

    /// Resizes every shard's estimators after model-state growth.
    ///
    /// # Errors
    ///
    /// [`ShardError`] if a shard's worker failed beyond recovery.
    fn grow(&mut self, num_slots: usize) -> Result<(), ShardError>;
}

/// The single-shard backend: per-sensor stages run inline on the
/// coordinator's thread, no channels, no allocation beyond the sensor
/// map itself. This is the engine's no-chaos hot path.
struct InlineBackend {
    config: PipelineConfig,
    sensors: BTreeMap<SensorId, SensorRuntime>,
}

impl ShardBackend for InlineBackend {
    fn label(
        &mut self,
        states: &ModelStates,
        representatives: &BTreeMap<SensorId, Vec<f64>>,
    ) -> Result<Option<BTreeMap<SensorId, usize>>, ShardError> {
        let mut labels = BTreeMap::new();
        for (&id, mean) in representatives {
            match states.nearest(mean) {
                Some((label, _)) => {
                    labels.insert(id, label);
                }
                None => return Ok(None),
            }
        }
        Ok(Some(labels))
    }

    fn step(
        &mut self,
        window_index: u64,
        correct: usize,
        num_slots: usize,
        labels: &BTreeMap<SensorId, usize>,
    ) -> Result<(Vec<SensorId>, Vec<SensorId>), ShardError> {
        let mut raw_alarms = Vec::new();
        let mut filtered_alarms = Vec::new();
        for (&id, &label) in labels {
            let sensor = self
                .sensors
                .entry(id)
                .or_insert_with(|| SensorRuntime::new(&self.config, num_slots));
            let step = sensor.step(window_index, label, correct);
            if step.raw {
                raw_alarms.push(id);
            }
            if step.filtered {
                filtered_alarms.push(id);
            }
        }
        Ok((raw_alarms, filtered_alarms))
    }

    fn grow(&mut self, num_slots: usize) -> Result<(), ShardError> {
        for s in self.sensors.values_mut() {
            s.grow(num_slots);
        }
        Ok(())
    }
}

/// Sharded multi-collector engine over one trace.
///
/// Construct once, then [`Engine::process_trace`] per trace. The
/// engine is the batch counterpart to the streaming
/// [`sentinet_core::Pipeline`]: it owns the shard pool for the
/// duration of a trace and returns an [`EngineRun`] exposing the same
/// post-run queries.
#[derive(Debug, Clone)]
pub struct Engine {
    config: PipelineConfig,
    sample_period: u64,
    num_shards: usize,
    supervisor: SupervisorConfig,
    chaos: ChaosPlan,
}

impl Engine {
    /// Creates an engine; `sample_period` as in
    /// [`sentinet_core::Pipeline::new`], `num_shards ≥ 1` worker
    /// shards (1 = inline serial execution, no threads).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `sample_period == 0`,
    /// or `num_shards == 0`.
    pub fn new(config: PipelineConfig, sample_period: u64, num_shards: usize) -> Self {
        config.validate();
        assert!(sample_period > 0, "sample period must be positive");
        assert!(num_shards > 0, "need at least one shard");
        Self {
            config,
            sample_period,
            num_shards,
            supervisor: SupervisorConfig::default(),
            chaos: ChaosPlan::new(),
        }
    }

    /// Replaces the supervisor tunables (restart budget, reply
    /// timeout, backoff) used by multi-shard runs.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Arms a chaos plan: the listed faults are injected into worker
    /// shards at the chosen windows. A non-empty plan forces the
    /// supervised backend even at one shard, since faults need a
    /// worker thread to kill.
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// The configured shard count.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Processes a whole trace and returns the completed run.
    ///
    /// # Errors
    ///
    /// [`ShardError`] only if a worker failed beyond what the
    /// supervisor can recover or quarantine — crashes within the
    /// restart budget are invisible here, and crashes beyond it
    /// surface as [`EngineRun::degraded`], not as an error.
    pub fn process_trace(&self, trace: &Trace) -> Result<EngineRun, ShardError> {
        if self.num_shards == 1 && self.chaos.is_empty() {
            let mut backend = InlineBackend {
                config: self.config.clone(),
                sensors: BTreeMap::new(),
            };
            let (global, outcomes) =
                drive_trace(&self.config, self.sample_period, trace, &mut backend)?;
            Ok(EngineRun {
                global,
                sensors: backend.sensors,
                outcomes,
                degraded: None,
                shard_restarts: Vec::new(),
            })
        } else {
            let mut backend = supervisor::SupervisedBackend::launch(
                self.config.clone(),
                self.supervisor.clone(),
                self.chaos.clone(),
                self.num_shards,
            );
            let (global, outcomes) =
                drive_trace(&self.config, self.sample_period, trace, &mut backend)?;
            let harvest = backend.finish()?;
            Ok(EngineRun {
                global,
                sensors: harvest.sensors,
                outcomes,
                degraded: harvest.degraded,
                shard_restarts: harvest.shard_restarts,
            })
        }
    }
}

/// The coordinator loop: windowing plus the global stages, with
/// per-sensor stages delegated to `backend`. This is the exact loop
/// [`Engine::process_trace`] runs; it is public so the `xtask`
/// schedule explorer can drive it with a schedule-controlled backend.
///
/// # Errors
///
/// Propagates the backend's [`ShardError`]s.
pub fn drive_trace(
    config: &PipelineConfig,
    sample_period: u64,
    trace: &Trace,
    backend: &mut impl ShardBackend,
) -> Result<(GlobalModel, Vec<WindowOutcome>), ShardError> {
    let mut global = GlobalModel::new(config.clone());
    let mut windower = Windower::new(config.window_samples as u64 * sample_period);
    let mut scratch = WindowScratch::new();
    let mut outcomes = Vec::new();
    for (time, sensor, reading) in trace.delivered() {
        for window in windower.push(time, sensor, reading.values()) {
            if let Some(o) = window_pass(&mut global, backend, &mut scratch, &window)? {
                outcomes.push(o);
            }
            windower.recycle(window);
        }
    }
    if let Some(window) = windower.finish() {
        if let Some(o) = window_pass(&mut global, backend, &mut scratch, &window)? {
            outcomes.push(o);
        }
    }
    Ok((global, outcomes))
}

/// One window through the same stage order as the serial pipeline's
/// `analyze_window`: bootstrap absorption, observable-state coverage,
/// the parallel label stage, the majority-vote barrier, the parallel
/// step stage, and model-state maintenance. `Ok(None)` means the
/// window was dropped (bootstrap, indecisive vote, uncovered mean) —
/// exactly when the serial pipeline drops it.
///
/// # Errors
///
/// Propagates the backend's [`ShardError`]s.
pub fn window_pass(
    global: &mut GlobalModel,
    backend: &mut impl ShardBackend,
    scratch: &mut WindowScratch,
    window: &ObservationWindow,
) -> Result<Option<WindowOutcome>, ShardError> {
    if !global.absorb_bootstrap(window) {
        return Ok(None);
    }
    let trim = global.config().observable_trim;
    let majority_fraction = global.config().majority_fraction;
    let mean = window.trimmed_mean_with(trim, scratch);
    if global.cover_window_mean(mean) {
        backend.grow(global.num_slots())?;
    }
    let Some(mean) = mean else {
        return Ok(None);
    };

    let representatives = window.sensor_means();
    let (observable, labels, points, point_labels) = {
        let Some(states) = global.states() else {
            return Ok(None);
        };
        let Some((observable, _)) = states.nearest(mean) else {
            return Ok(None);
        };
        let Some(labels) = backend.label(states, &representatives)? else {
            return Ok(None);
        };
        // The clustering round that ends the window takes the serial
        // pipeline's flat shape: representatives in ascending sensor
        // order with the labels the vote is about to run on (the
        // states do not move in between). A quarantined shard's
        // sensors have no label; their representatives still train
        // the states, so they are labelled here.
        let mut points = Vec::with_capacity(representatives.len() * states.dims());
        let mut point_labels = Vec::with_capacity(representatives.len());
        let mut voted = labels.iter().peekable();
        for (id, mean) in &representatives {
            let label = match voted.next_if(|(voter, _)| *voter == id) {
                Some((_, &label)) => Some(label),
                None => states.nearest(mean).map(|(label, _)| label),
            };
            let Some(label) = label else {
                return Ok(None);
            };
            points.extend_from_slice(mean);
            point_labels.push(label);
        }
        (observable, labels, points, point_labels)
    };
    let Some((correct, decisive)) = majority_vote(&labels, majority_fraction) else {
        return Ok(None);
    };

    if decisive {
        global.record_decisive(correct, observable);
    }

    let window_index = global.windows_processed();
    let num_slots = global.num_slots();
    let (raw_alarms, filtered_alarms) = if decisive {
        backend.step(window_index, correct, num_slots, &labels)?
    } else {
        (Vec::new(), Vec::new())
    };

    let (cluster_events, grew) = global.finish_window_labeled(&points, &point_labels);
    if grew {
        backend.grow(global.num_slots())?;
    }

    Ok(Some(WindowOutcome {
        index: window_index,
        start: window.start,
        observable,
        correct,
        raw_alarms,
        filtered_alarms,
        cluster_events,
    }))
}

/// A completed engine run: every window outcome plus the final models,
/// answering the same post-run queries as the serial pipeline.
#[derive(Debug)]
pub struct EngineRun {
    global: GlobalModel,
    sensors: BTreeMap<SensorId, SensorRuntime>,
    outcomes: Vec<WindowOutcome>,
    degraded: Option<DegradedStatus>,
    shard_restarts: Vec<(usize, u32)>,
}

impl EngineRun {
    /// Every processed window, in order.
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    /// Consumes the run, returning the outcomes.
    pub fn into_outcomes(self) -> Vec<WindowOutcome> {
        self.outcomes
    }

    /// The global model (states, `M_CO`, histories).
    pub fn global(&self) -> &GlobalModel {
        &self.global
    }

    /// Number of windows fully processed (post-bootstrap).
    pub fn windows_processed(&self) -> u64 {
        self.global.windows_processed()
    }

    /// `Some` iff the supervisor quarantined at least one shard: the
    /// listed sensors stopped being stepped (and voting) partway
    /// through the run. A run that recovered every crash within budget
    /// reports `None` here and is bit-identical to the serial
    /// pipeline.
    pub fn degraded(&self) -> Option<&DegradedStatus> {
        self.degraded.as_ref()
    }

    /// `(shard, restart count)` for every shard the supervisor
    /// respawned at least once, quarantined or not. Non-empty with
    /// `degraded() == None` means every crash was recovered exactly.
    pub fn shard_restarts(&self) -> &[(usize, u32)] {
        &self.shard_restarts
    }

    /// Sensors seen so far.
    pub fn sensor_ids(&self) -> Vec<SensorId> {
        self.sensors.keys().copied().collect()
    }

    /// The per-sensor `M_CE` estimator.
    pub fn m_ce(&self, sensor: SensorId) -> Option<&OnlineHmmEstimator> {
        self.sensors.get(&sensor).map(SensorRuntime::m_ce)
    }

    /// The raw-alarm history of a sensor as `(window, raw)` pairs.
    pub fn raw_alarm_history(&self, sensor: SensorId) -> Option<&[(u64, bool)]> {
        self.sensors.get(&sensor).map(SensorRuntime::raw_history)
    }

    /// The error/attack tracks opened for a sensor.
    pub fn tracks(&self, sensor: SensorId) -> Option<&[TrackRecord]> {
        self.sensors.get(&sensor).map(SensorRuntime::tracks)
    }

    /// Whether a filtered alarm was ever raised for the sensor.
    pub fn ever_alarmed(&self, sensor: SensorId) -> bool {
        self.sensors
            .get(&sensor)
            .map(SensorRuntime::ever_alarmed)
            .unwrap_or(false)
    }

    /// Memoized network-level verdict (see
    /// [`sentinet_core::Pipeline::network_attack`]).
    pub fn network_attack(&self) -> Option<AttackType> {
        self.global.network_attack()
    }

    /// Classifies one sensor (see [`sentinet_core::Pipeline::classify`]).
    pub fn classify(&self, sensor: SensorId) -> Diagnosis {
        self.global.classify(self.sensors.get(&sensor))
    }

    /// Classifies one sensor with the verdict's confidence.
    pub fn classify_with_confidence(&self, sensor: SensorId) -> (Diagnosis, f64) {
        self.global
            .classify_with_confidence(self.sensors.get(&sensor))
    }

    /// Classifies every sensor seen so far.
    pub fn classify_all(&self) -> BTreeMap<SensorId, Diagnosis> {
        self.sensors
            .iter()
            .map(|(&id, rt)| (id, self.global.classify(Some(rt))))
            .collect()
    }

    /// The `(window, correct, observable)` decisive-window history.
    pub fn state_history(&self) -> &[(u64, usize, usize)] {
        self.global.state_history()
    }

    /// Builds the operator-facing snapshot, identical in content to
    /// [`sentinet_core::Pipeline::report`] on the same trace — plus
    /// the degraded-mode status when shards were quarantined.
    pub fn report(&self) -> PipelineReport {
        PipelineReport::build(&self.global, &self.sensors, self.degraded.clone())
    }

    /// Builds the recovery plan from the run's diagnoses, identical to
    /// [`sentinet_core::RecoveryPlan::from_pipeline`] on the same
    /// trace — except that quarantined sensors are forced to
    /// [`sentinet_core::RecoveryAction::MaskAndService`]: their shard stopped
    /// contributing mid-run, so they need servicing regardless of what
    /// their stale data says.
    pub fn recovery_plan(&self) -> RecoveryPlan {
        RecoveryPlan::from_report(&self.report())
    }
}
