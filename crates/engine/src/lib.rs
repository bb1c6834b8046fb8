//! `sentinet-engine` — sharded multi-collector execution of the
//! detection pipeline.
//!
//! The collector procedure's per-window work is of two kinds:
//!
//! - **per-sensor stages** — Eq. 3 labelling, alarm filter update,
//!   `M_CE` online estimation, error/attack track management — which
//!   touch only one sensor's state ([`sentinet_core::SensorRuntime`]);
//! - **global stages** — clustering, observable/correct state
//!   identification, `M_CO`/`M_C`/`M_O` estimation, majority voting —
//!   which need every sensor's vote ([`sentinet_core::GlobalModel`]).
//!
//! The stage order itself is `sentinet-core`'s: one window pass
//! ([`sentinet_core::Coordinator`]) runs the global stages and hands
//! the per-sensor ones to a [`sentinet_core::SensorStages`]. The serial
//! [`sentinet_core::Pipeline`] answers with a sensor map of its own;
//! the [`Engine`] answers with `num_shards` worker threads (sensor *s*
//! lives on shard `s mod num_shards` for its whole life). Per window
//! the pass hands each shard a batched **label** job (model-state
//! snapshot + that shard's sensor representatives) and, on decisive
//! windows, a batched **step** job; explicit **grow** jobs keep
//! worker-side estimators sized to the coordinator's model-state slots.
//!
//! The majority vote itself cannot be sharded: Eq. 4 elects the state
//! backed by the most sensors *across the whole network*, and every
//! subsequent stage (alarm generation, `M_CO`/`M_CE` updates) consumes
//! the elected state — so the vote is a per-window barrier between the
//! parallel label stage and the parallel step stage.
//!
//! Because every per-sensor float operation happens in the same order
//! on exactly one thread, and the global stages are the same code on
//! the coordinating thread, the engine's output is **bit-for-bit
//! identical** to the serial pipeline at any shard count; at
//! `num_shards = 1` with no chaos plan the engine *is* the serial
//! pipeline.
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
//! fan-out and reply folds included, so the `xtask` shard-schedule
//! model checker can put the same jobs through the same workers under
//! every worker/coordinator interleaving and assert the majority-vote
//! barrier yields bit-identical outcomes.
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
use sentinet_core::{
    Coordinator, DegradedStatus, Pipeline, PipelineConfig, PipelineReport, RecoveryPlan, SensorMap,
    SensorRuntime, SensorStages, WindowOutcome,
};
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
    //! [`SensorRuntime`]s of its shard. The coordinator splits a
    //! window's sensors into per-shard [`Job`]s ([`label_jobs`] /
    //! [`step_jobs`]), the worker answers with [`Reply`]s, and the
    //! coordinator folds arrival-ordered replies back into the window
    //! pass's flat shapes via [`collect_labels`] / [`collect_steps`].
    //!
    //! Everything here is deterministic given a delivery order, which
    //! is exactly what the `xtask` model checker exploits: it replays
    //! the protocol under every worker/coordinator schedule and asserts
    //! the fold is order-insensitive.

    use super::*;
    use sentinet_core::SensorSnapshot;

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
        /// The shard's sensors (they appear on their first
        /// [`Job::Step`]); a restarted worker starts from
        /// [`SensorMap::restore`] of its last [`Reply::Snapshot`].
        pub sensors: SensorMap,
    }

    impl ShardWorker {
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
                    let mut stepped = WindowOutcome {
                        index: window_index,
                        correct,
                        ..WindowOutcome::default()
                    };
                    let Ok(()) = self
                        .sensors
                        .step(num_slots, labels.into_iter(), &mut stepped);
                    Some(Reply::Stepped {
                        raw: stepped.raw_alarms,
                        filtered: stepped.filtered_alarms,
                    })
                }
                Job::Grow { num_slots } => {
                    let Ok(()) = self.sensors.grow(num_slots);
                    None
                }
                Job::Snapshot => Some(Reply::Snapshot(self.sensors.snapshots())),
                Job::Finish => Some(Reply::Done(self.sensors.take())),
            }
        }
    }

    /// Splits a window's sensors by owning shard: batch `k` holds shard
    /// `k`'s share of `items`, in the order given.
    fn fan_out<T>(
        items: impl Iterator<Item = (SensorId, T)>,
        num_shards: usize,
    ) -> Vec<Vec<(SensorId, T)>> {
        let mut batches: Vec<_> = (0..num_shards).map(|_| Vec::new()).collect();
        for (id, item) in items {
            batches[shard_of(id, num_shards)].push((id, item));
        }
        batches
    }

    /// The label stage of one window as one [`Job::Label`] per shard
    /// (`ids` ascending, `representatives` their row-major window
    /// means), each carrying its own snapshot of `states`.
    pub fn label_jobs(
        states: &ModelStates,
        ids: &[SensorId],
        representatives: &[f64],
        num_shards: usize,
    ) -> Vec<Job> {
        let means = representatives.chunks_exact(states.dims());
        fan_out(
            ids.iter().copied().zip(means.map(<[f64]>::to_vec)),
            num_shards,
        )
        .into_iter()
        .map(|means| Job::Label {
            states: states.clone(),
            means,
        })
        .collect()
    }

    /// The step stage of the decisive window `outcome` (its index and
    /// elected state) as one [`Job::Step`] per shard over the sensors
    /// that `voted` (with their labels, ascending).
    pub fn step_jobs(
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &WindowOutcome,
        num_shards: usize,
    ) -> Vec<Job> {
        fan_out(voted, num_shards)
            .into_iter()
            .map(|labels| Job::Step {
                window_index: outcome.index,
                correct: outcome.correct,
                num_slots,
                labels,
            })
            .collect()
    }

    /// Folds label replies (in arrival order) into the window's votes:
    /// `votes[i]` is the label a reply gives `ids[i]`. A sensor no
    /// reply labels — its shard is quarantined, or it falls outside
    /// every active model state — keeps the vote it came with. Replies
    /// that are not [`Reply::Labels`] are ignored (protocol corruption;
    /// unreachable with the engine's own workers).
    ///
    /// The fold is insensitive to arrival order: every label lands in
    /// its own sensor's cell. The model checker asserts this under
    /// every schedule.
    pub fn collect_labels(
        replies: impl IntoIterator<Item = Reply>,
        ids: &[SensorId],
        votes: &mut [Option<usize>],
    ) {
        for reply in replies {
            let Reply::Labels(batch) = reply else {
                debug_assert!(false, "label barrier answered with a non-label reply");
                continue;
            };
            for (id, label) in batch {
                if let Ok(at) = ids.binary_search(&id) {
                    votes[at] = label;
                }
            }
        }
    }

    /// Folds step replies (in arrival order) into `outcome`'s
    /// ascending-sensor alarm lists — the serial pipeline's iteration
    /// order. The final sort is what makes the fold
    /// arrival-order-insensitive; replies that are not
    /// [`Reply::Stepped`] are ignored (protocol corruption; unreachable
    /// with the engine's own workers).
    pub fn collect_steps(replies: impl IntoIterator<Item = Reply>, outcome: &mut WindowOutcome) {
        for reply in replies {
            let Reply::Stepped { raw, filtered } = reply else {
                debug_assert!(false, "step barrier answered with a non-step reply");
                continue;
            };
            outcome.raw_alarms.extend(raw);
            outcome.filtered_alarms.extend(filtered);
        }
        outcome.raw_alarms.sort_unstable();
        outcome.filtered_alarms.sort_unstable();
    }
}

/// A failure of the shard protocol that the supervisor could not hide.
///
/// With the supervised backend these are edge conditions — worker
/// crashes are absorbed by restart/quarantine — but the window pass is
/// typed to surface them instead of silently answering neutral values.
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

/// Sharded multi-collector engine over one trace.
///
/// Construct once, then [`Engine::process_trace`] per trace. The
/// engine is the batch counterpart to the streaming
/// [`sentinet_core::Pipeline`]: it owns the shard pool for the
/// duration of a trace and returns an [`EngineRun`] holding the
/// pipeline the run ended as.
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
    /// shards (1 = the serial pipeline, no threads).
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
            let mut pipeline = Pipeline::new(self.config.clone(), self.sample_period);
            let outcomes = pipeline.process_trace(trace);
            return Ok(EngineRun {
                pipeline,
                outcomes,
                degraded: None,
                shard_restarts: Vec::new(),
            });
        }
        let mut coordinator = Coordinator::new(self.config.clone(), self.sample_period);
        let mut backend = supervisor::SupervisedBackend::launch(
            self.config.clone(),
            self.supervisor.clone(),
            self.chaos.clone(),
            self.num_shards,
        );
        let outcomes = coordinator.process_trace(&mut backend, trace)?;
        backend.harvest(coordinator, outcomes)
    }
}

/// A completed engine run: every window outcome, the pipeline the run
/// ended as — final models and sensors, answering every post-run query
/// of the serial pipeline — and what the supervisor had to do.
#[derive(Debug)]
pub struct EngineRun {
    pipeline: Pipeline,
    outcomes: Vec<WindowOutcome>,
    degraded: Option<DegradedStatus>,
    shard_restarts: Vec<(usize, u32)>,
}

impl EngineRun {
    /// Every processed window, in order.
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    /// The run's final state as a serial pipeline. Its own
    /// [`Pipeline::report`] knows nothing of quarantined shards;
    /// [`EngineRun::report`] does.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Number of windows fully processed (post-bootstrap).
    pub fn windows_processed(&self) -> u64 {
        self.pipeline.windows_processed()
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

    /// Builds the operator-facing snapshot, identical in content to
    /// [`sentinet_core::Pipeline::report`] on the same trace — plus
    /// the degraded-mode status when shards were quarantined.
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            degraded: self.degraded.clone(),
            ..self.pipeline.report()
        }
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
