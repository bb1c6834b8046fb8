//! The self-healing shard pool: supervised workers, per-window
//! checkpoints, crash recovery by replay, and quarantine.
//!
//! The pre-supervisor engine ran workers on scoped threads and
//! re-raised any worker panic at join — one poisoned sensor update
//! killed the whole run. This module replaces that with a supervision
//! tree in miniature:
//!
//! - **Unwind boundary.** Each worker wraps job execution in
//!   [`std::panic::catch_unwind`]; a panic becomes a `Crashed` note to
//!   the coordinator and a clean thread exit, never an unwinding join.
//! - **Checkpoints.** At the start of every window's label stage the
//!   coordinator snapshots each shard ([`Job::Snapshot`]) — estimator
//!   matrices, alarm filters, track state, bit-exact — and clears that
//!   shard's replay log.
//! - **Recovery = restore + replay.** On a crash (a `Crashed` note, a
//!   failed send, or a reply timeout) the shard's epoch is bumped —
//!   discrediting any late replies from the superseded worker — and a
//!   fresh thread is spawned from the last checkpoint. The logged
//!   mutating jobs (`Step`s whose replies were already folded, `Grow`s)
//!   are replayed silently, then the in-flight job is re-delivered.
//!   Because per-sensor state is deterministic in the job sequence,
//!   the restored worker is bit-identical to the lost one.
//! - **Quarantine.** More than [`SupervisorConfig::max_shard_restarts`]
//!   crashes between two successful checkpoints quarantines the shard:
//!   its sensors stop being labelled/stepped (and thus voting), the
//!   run continues degraded, and the final harvest restores the
//!   quarantined sensors read-only from their last checkpoint and
//!   reports them in a [`DegradedStatus`].
//!
//! All channels are bounded and every coordinator wait carries the
//! configured timeout — a hung worker stalls its shard for at most
//! [`SupervisorConfig::reply_timeout`], then gets superseded.
//!
//! [`Job::Snapshot`]: crate::protocol::Job::Snapshot

use crate::chaos::{ChaosPlan, FaultKind, FaultPoint};
use crate::protocol::{
    collect_labels, collect_steps, label_jobs, step_jobs, Job, Reply, ShardWorker,
};
use crate::{EngineRun, ShardError};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use sentinet_cluster::ModelStates;
use sentinet_core::{
    Coordinator, DegradedStatus, Pipeline, PipelineConfig, SensorMap, SensorRuntime,
    SensorSnapshot, SensorStages, WindowOutcome,
};
use sentinet_sim::SensorId;
use std::collections::BTreeMap;
use std::time::Duration;

/// Tunables of the supervised shard pool.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Crashes tolerated per shard *between two successful
    /// checkpoints* before the shard is quarantined. The counter
    /// resets every window that checkpoints cleanly, so only a shard
    /// failing to make progress burns through the budget.
    pub max_shard_restarts: u32,
    /// How long the coordinator waits for any reply before declaring
    /// every still-pending shard crashed.
    pub reply_timeout: Duration,
    /// Base backoff slept before respawning a crashed shard, scaled by
    /// the shard's consecutive-crash count.
    pub restart_backoff: Duration,
    /// Capacity of each worker's bounded job channel.
    pub channel_capacity: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_shard_restarts: 3,
            reply_timeout: Duration::from_secs(2),
            restart_backoff: Duration::from_millis(2),
            channel_capacity: 8,
        }
    }
}

/// What the coordinator sends a supervised worker.
enum WorkerMsg {
    /// Execute a job; replying jobs answer with an [`Envelope`].
    Run(Job),
    /// Re-execute a logged job after a restart, suppressing the reply
    /// (the original reply was already folded before the crash).
    Replay(Job),
    /// Arm a chaos fault for the next [`WorkerMsg::Run`].
    Chaos(FaultKind),
}

/// A worker-to-coordinator message, tagged with the worker's identity
/// so replies from a superseded worker can be discarded.
struct Envelope {
    shard: usize,
    epoch: u64,
    note: Note,
}

enum Note {
    Reply(Reply),
    /// The worker caught a panic (or a corrupt checkpoint) and exited.
    /// No payload: real panic messages already reach stderr through
    /// the panic hook before the catch.
    Crashed,
}

/// The supervised worker loop. Panics inside job execution are caught
/// here — the thread reports `Crashed` and exits cleanly; it never
/// unwinds to completion and is never joined while panicking.
fn supervised_worker(
    shard: usize,
    epoch: u64,
    config: PipelineConfig,
    checkpoint: Vec<(SensorId, SensorSnapshot)>,
    jobs: Receiver<WorkerMsg>,
    replies: Sender<Envelope>,
) {
    let send = |note: Note| replies.send(Envelope { shard, epoch, note }).is_ok();
    let Ok(sensors) = SensorMap::restore(config, checkpoint) else {
        send(Note::Crashed);
        return;
    };
    let mut worker = ShardWorker { sensors };
    let mut armed: Option<FaultKind> = None;
    for msg in jobs.iter() {
        let (job, replay) = match msg {
            WorkerMsg::Chaos(kind) => {
                armed = Some(kind);
                continue;
            }
            WorkerMsg::Run(job) => (job, false),
            WorkerMsg::Replay(job) => (job, true),
        };
        let last = matches!(job, Job::Finish);
        let fault = if replay { None } else { armed.take() };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if matches!(fault, Some(FaultKind::Panic)) {
                // sentinet-allow(panic-used): the chaos harness's
                // injected fault — deliberately thrown inside the
                // unwind boundary it exists to exercise.
                panic!("chaos: injected worker panic");
            }
            worker.handle(job)
        }));
        match outcome {
            Ok(Some(reply)) => {
                if replay || matches!(fault, Some(FaultKind::DropReply)) {
                    // Swallowed: replays rebuild state silently, and a
                    // dropped reply simulates a hung worker — the
                    // coordinator's timeout supersedes this thread.
                } else {
                    if let Some(FaultKind::DelayReply { millis }) = fault {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    if !send(Note::Reply(reply)) {
                        return; // coordinator is gone
                    }
                }
                if last {
                    return;
                }
            }
            Ok(None) => {} // Grow has no reply
            Err(_panic) => {
                send(Note::Crashed);
                return; // the "crash": a clean exit after the catch
            }
        }
    }
}

/// One shard's supervision record.
struct ShardSlot {
    /// Bumped on every respawn; replies from older epochs are stale.
    epoch: u64,
    /// Job channel of the live worker; `None` once quarantined.
    jobs: Option<Sender<WorkerMsg>>,
    /// Last good checkpoint (start of the current window).
    checkpoint: Vec<(SensorId, SensorSnapshot)>,
    /// Mutating jobs applied since the checkpoint, in order.
    log: Vec<Job>,
    /// Consecutive crashes since the last successful checkpoint.
    crashes: u32,
}

/// The supervised [`SensorStages`]: a pool of restartable workers
/// behind bounded channels, driven by the same window pass
/// ([`sentinet_core::Coordinator`]) as the serial pipeline's sensor map.
pub(crate) struct SupervisedBackend {
    config: PipelineConfig,
    tunables: SupervisorConfig,
    chaos: ChaosPlan,
    slots: Vec<ShardSlot>,
    reply_tx: Sender<Envelope>,
    reply_rx: Receiver<Envelope>,
    /// Total respawns per shard over the whole run (never reset).
    restarts: Vec<u32>,
    /// Label barriers seen — the chaos window coordinate.
    label_barriers: u64,
    /// Window coordinate of the current label/step pair.
    current_window: u64,
}

impl SupervisedBackend {
    /// Spawns `num_shards` supervised workers with empty state.
    pub(crate) fn launch(
        config: PipelineConfig,
        tunables: SupervisorConfig,
        chaos: ChaosPlan,
        num_shards: usize,
    ) -> Self {
        let (reply_tx, reply_rx) = bounded(num_shards.max(1) * tunables.channel_capacity.max(1));
        let mut pool = Self {
            config,
            tunables,
            chaos,
            slots: Vec::with_capacity(num_shards),
            reply_tx,
            reply_rx,
            restarts: vec![0; num_shards],
            label_barriers: 0,
            current_window: 0,
        };
        for shard in 0..num_shards {
            pool.slots.push(ShardSlot {
                epoch: 0,
                jobs: None,
                checkpoint: Vec::new(),
                log: Vec::new(),
                crashes: 0,
            });
            pool.spawn(shard);
        }
        pool
    }

    fn is_live(&self, shard: usize) -> bool {
        self.slots[shard].jobs.is_some()
    }

    /// Spawns a worker for `shard` from its current checkpoint/epoch.
    fn spawn(&mut self, shard: usize) {
        let (tx, rx) = bounded(self.tunables.channel_capacity.max(1));
        let slot = &self.slots[shard];
        let epoch = slot.epoch;
        let config = self.config.clone();
        let checkpoint = slot.checkpoint.clone();
        let replies = self.reply_tx.clone();
        std::thread::spawn(move || {
            supervised_worker(shard, epoch, config, checkpoint, rx, replies)
        });
        self.slots[shard].jobs = Some(tx);
    }

    /// Handles one detected crash: drop the (possibly hung) worker's
    /// channel, bump the epoch so its late replies are discarded, then
    /// either quarantine (budget exhausted) or back off and respawn
    /// from the last checkpoint.
    fn crash(&mut self, shard: usize) {
        let slot = &mut self.slots[shard];
        slot.jobs = None; // a superseded-but-alive worker exits when this drops
        slot.epoch += 1;
        slot.crashes += 1;
        if slot.crashes > self.tunables.max_shard_restarts {
            return; // quarantined: `jobs` stays None
        }
        let backoff = self.tunables.restart_backoff * slot.crashes;
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        self.restarts[shard] += 1;
        self.spawn(shard);
    }

    /// Replays the shard's mutating-job log into a freshly respawned
    /// worker; `false` if the new worker died mid-replay.
    fn replay(&mut self, shard: usize) -> bool {
        let Some(tx) = self.slots[shard].jobs.clone() else {
            return false;
        };
        for job in self.slots[shard].log.clone() {
            if tx.send(WorkerMsg::Replay(job)).is_err() {
                return false;
            }
        }
        true
    }

    /// Crash + respawn + replay until the shard either holds its
    /// replayed state or runs out of restart budget. Terminates
    /// because every iteration burns one crash from the budget.
    fn recover(&mut self, shard: usize) {
        loop {
            self.crash(shard);
            if !self.is_live(shard) {
                return; // quarantined
            }
            if self.replay(shard) {
                return; // healthy again, ready for re-delivery
            }
        }
    }

    /// Sends one barrier job (preceded by any armed chaos fault) to a
    /// live shard, recovering and retrying on send failure. `false`
    /// once the shard is quarantined.
    fn dispatch(&mut self, shard: usize, job: &Job, point: Option<FaultPoint>) -> bool {
        loop {
            let Some(tx) = self.slots[shard].jobs.clone() else {
                return false;
            };
            if let Some(point) = point {
                if let Some(kind) = self.chaos.take(shard, self.current_window, point) {
                    if tx.send(WorkerMsg::Chaos(kind)).is_err() {
                        self.recover(shard);
                        continue;
                    }
                }
            }
            if tx.send(WorkerMsg::Run(job.clone())).is_err() {
                self.recover(shard);
                continue;
            }
            return true;
        }
    }

    /// One synchronous exchange with every live shard, `jobs[k]` going
    /// to shard `k` (a quarantined shard's job is dropped unsent).
    /// Crashed shards are recovered and their in-flight job
    /// re-delivered; shards that exhaust their budget drop out of the
    /// barrier. Returns `(shard, reply)` pairs in arrival order.
    fn barrier(
        &mut self,
        jobs: Vec<Job>,
        point: Option<FaultPoint>,
    ) -> Result<Vec<(usize, Reply)>, ShardError> {
        let num = self.slots.len();
        let mut pending = vec![false; num];
        for (shard, job) in jobs.iter().enumerate() {
            pending[shard] = self.dispatch(shard, job, point);
        }
        let mut replies = Vec::new();
        while pending.iter().any(|&p| p) {
            match self.reply_rx.recv_timeout(self.tunables.reply_timeout) {
                Ok(env) => {
                    if env.shard >= num
                        || env.epoch != self.slots[env.shard].epoch
                        || !self.is_live(env.shard)
                    {
                        continue; // stale: a superseded or quarantined worker
                    }
                    match env.note {
                        Note::Crashed => {
                            self.recover(env.shard);
                            if pending[env.shard] {
                                pending[env.shard] =
                                    self.dispatch(env.shard, &jobs[env.shard], point);
                            }
                        }
                        Note::Reply(reply) => {
                            if pending[env.shard] {
                                pending[env.shard] = false;
                                // A folded Step mutated worker state:
                                // log it for post-crash replay. (Label
                                // and Snapshot are pure; Grow is logged
                                // at send; Finish ends the shard.)
                                if matches!(jobs[env.shard], Job::Step { .. }) {
                                    let job = jobs[env.shard].clone();
                                    self.slots[env.shard].log.push(job);
                                }
                                replies.push((env.shard, reply));
                            }
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Nothing arrived for a full timeout: every shard
                    // still pending is hung or dead. Supersede them all.
                    for shard in 0..num {
                        if !pending[shard] {
                            continue;
                        }
                        self.recover(shard);
                        pending[shard] = self.dispatch(shard, &jobs[shard], point);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable: we hold a reply_tx clone ourselves.
                    return Err(ShardError::WorkerLost { shard: 0 });
                }
            }
        }
        Ok(replies)
    }

    /// The per-window checkpoint barrier: snapshot every live shard,
    /// clear its replay log, and reset its consecutive-crash budget.
    fn refresh_checkpoints(&mut self) -> Result<(), ShardError> {
        let jobs = vec![Job::Snapshot; self.slots.len()];
        for (shard, reply) in self.barrier(jobs, None)? {
            let Reply::Snapshot(checkpoint) = reply else {
                return Err(ShardError::Protocol {
                    shard,
                    what: "snapshot barrier answered with a non-snapshot reply".into(),
                });
            };
            let slot = &mut self.slots[shard];
            slot.checkpoint = checkpoint;
            slot.log.clear();
            slot.crashes = 0;
        }
        Ok(())
    }

    /// Ends the run `coordinator` drove through this pool: collects
    /// every shard's sensors — live shards via the finish barrier,
    /// quarantined shards read-only from their last checkpoint — into
    /// the pipeline the run ends as, and assembles the degraded status.
    pub(crate) fn harvest(
        mut self,
        coordinator: Coordinator,
        outcomes: Vec<WindowOutcome>,
    ) -> Result<EngineRun, ShardError> {
        let jobs = vec![Job::Finish; self.slots.len()];
        let mut sensors = BTreeMap::new();
        for (shard, reply) in self.barrier(jobs, None)? {
            let Reply::Done(batch) = reply else {
                return Err(ShardError::Protocol {
                    shard,
                    what: "finish barrier answered with a non-done reply".into(),
                });
            };
            sensors.extend(batch);
        }
        let mut quarantined = Vec::new();
        for slot in &self.slots {
            if slot.jobs.is_some() {
                continue;
            }
            for (id, snapshot) in &slot.checkpoint {
                quarantined.push(*id);
                if let Ok(rt) = SensorRuntime::from_snapshot(snapshot.clone()) {
                    sensors.insert(*id, rt);
                }
            }
        }
        quarantined.sort_unstable();
        let shard_restarts: Vec<(usize, u32)> = self
            .restarts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(shard, &n)| (shard, n))
            .collect();
        let degraded = if quarantined.is_empty() {
            None
        } else {
            Some(DegradedStatus {
                quarantined_sensors: quarantined,
                shard_restarts: shard_restarts.clone(),
            })
        };
        Ok(EngineRun {
            pipeline: Pipeline::from_parts(coordinator, sensors),
            outcomes,
            degraded,
            shard_restarts,
        })
    }
}

impl SensorStages for SupervisedBackend {
    type Error = ShardError;

    fn label(
        &mut self,
        states: &ModelStates,
        ids: &[SensorId],
        representatives: &[f64],
        votes: &mut [Option<usize>],
    ) -> Result<(), ShardError> {
        self.current_window = self.label_barriers;
        self.label_barriers += 1;
        self.refresh_checkpoints()?;
        // A quarantined shard's job goes unsent, so its sensors cast
        // no vote: they abstain from the majority.
        let jobs = label_jobs(states, ids, representatives, self.slots.len());
        let replies = self.barrier(jobs, Some(FaultPoint::Label))?;
        collect_labels(replies.into_iter().map(|(_, reply)| reply), ids, votes);
        Ok(())
    }

    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) -> Result<(), ShardError> {
        let jobs = step_jobs(num_slots, voted, outcome, self.slots.len());
        let replies = self.barrier(jobs, Some(FaultPoint::Step))?;
        collect_steps(replies.into_iter().map(|(_, reply)| reply), outcome);
        Ok(())
    }

    fn grow(&mut self, num_slots: usize) -> Result<(), ShardError> {
        // Grow has no reply, so it is logged optimistically at send: a
        // crash before the worker applied it is recovered by replaying
        // from the pre-grow checkpoint, where the logged grow runs
        // exactly once.
        let job = Job::Grow { num_slots };
        for shard in 0..self.slots.len() {
            if self.dispatch(shard, &job, None) {
                self.slots[shard].log.push(job.clone());
            }
        }
        Ok(())
    }
}
