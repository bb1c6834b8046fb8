//! Shard-schedule model checker for the sentinet engine.
//!
//! The engine's correctness claim is that its output is bit-for-bit
//! identical to the serial pipeline **under every worker/coordinator
//! interleaving** — the majority-vote barrier and the order-insensitive
//! reply folds (`collect_labels` / `collect_steps`) are what make the
//! claim hold, and a fixed-seed equivalence test only ever observes the
//! schedules the OS happens to produce.
//!
//! This module closes that gap loom-style: it drives the *real*
//! window pass ([`sentinet_core::Coordinator`], the serial pipeline's
//! own) with a [`SensorStages`] whose shards are in-process
//! [`ShardWorker`]s fed the engine's own fan-out through the vendored
//! crossbeam channels, and where every place the real engine leaves an
//! order to the scheduler — which shard executes its pending job
//! first, hence in which order replies arrive at the coordinator —
//! becomes an explicit choice point. A depth-first
//! [`Schedule`] enumerates every complete assignment of choices (the
//! trace is replayed from scratch per schedule; all state is
//! reconstructed, so the exploration is exhaustive and deterministic)
//! and every schedule's `WindowOutcome`s, per-sensor alarm histories
//! and `M_CE` estimators must equal the serial pipeline's exactly.
//!
//! The scenario is the smallest one that exercises every barrier: 2
//! shards, 3 sensors (sensor 1 alone on shard 1), 3 windows, with
//! sensor 2 turning faulty after the first window so the decisive-step
//! path (alarms, `M_CE` updates) runs under exploration too.
//!
//! [`explore_faults`] extends the claim to *crash* schedules: a worker
//! panic injected at every (shard × window × barrier) coordinate of the
//! same scenario must leave the supervised engine's crashed-and-restored
//! output bit-identical to the serial pipeline, a dropped reply must
//! recover through the reply timeout, and exhausting the restart budget
//! must quarantine the shard's sensors instead of aborting.

use crossbeam::channel::{unbounded, Receiver, Sender};
use sentinet_cluster::ModelStates;
use sentinet_core::{
    Coordinator, Pipeline, PipelineConfig, SensorMap, SensorStages, WindowOutcome,
};
use sentinet_engine::protocol::{
    collect_labels, collect_steps, label_jobs, step_jobs, Job, Reply, ShardWorker,
};
use sentinet_engine::{ChaosPlan, Engine, FaultKind, FaultPoint, FaultSpec, SupervisorConfig};
use sentinet_sim::{Payload, Reading, SensorId, Trace, TraceRecord};
use std::convert::Infallible;
use std::time::Duration;

const NUM_SHARDS: usize = 2;
const NUM_SENSORS: u16 = 3;
const SAMPLE_PERIOD: u64 = 1;
const WINDOW_SAMPLES: u32 = 4;
const NUM_WINDOWS: u64 = 3;

/// Result of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Complete schedules executed (distinct interleavings).
    pub schedules: usize,
    /// Windows produced per schedule.
    pub windows: usize,
    /// Sensors compared per schedule.
    pub sensors: usize,
}

/// A DFS cursor over schedule space. Each run consumes choices left to
/// right; unseen choice points default to 0 and are recorded with
/// their width so [`Schedule::advance`] can enumerate the next leaf.
#[derive(Debug, Default)]
pub struct Schedule {
    choices: Vec<usize>,
    widths: Vec<usize>,
    cursor: usize,
}

impl Schedule {
    /// Starts at the all-zeros schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the cursor for the next replay of the same schedule.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Takes the next choice among `n` alternatives.
    pub fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty choice");
        if self.cursor == self.choices.len() {
            self.choices.push(0);
            self.widths.push(n);
        }
        assert_eq!(
            self.widths[self.cursor], n,
            "nondeterministic choice width at point {} — replay diverged",
            self.cursor
        );
        let c = self.choices[self.cursor];
        self.cursor += 1;
        c
    }

    /// The choices taken so far (a complete replayable coordinate of
    /// the current schedule — violation reports embed it).
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Advances to the next unexplored schedule; false when the space
    /// is exhausted.
    pub fn advance(&mut self) -> bool {
        while let Some(last) = self.choices.len().checked_sub(1) {
            if self.choices[last] + 1 < self.widths[last] {
                self.choices[last] += 1;
                self.reset();
                return true;
            }
            self.choices.pop();
            self.widths.pop();
        }
        false
    }
}

/// A schedule-controlled [`SensorStages`]: jobs flow through real
/// crossbeam channels to in-process [`ShardWorker`]s, and the schedule
/// picks which shard runs next at every barrier. It never loses a
/// worker, so no stage can fail.
struct ExplorerBackend<'a> {
    workers: Vec<ShardWorker>,
    job_ports: Vec<(Sender<Job>, Receiver<Job>)>,
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
    schedule: &'a mut Schedule,
}

impl<'a> ExplorerBackend<'a> {
    fn new(config: &PipelineConfig, schedule: &'a mut Schedule) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        Self {
            workers: (0..NUM_SHARDS)
                .map(|_| SensorMap::new(config.clone()))
                .map(|sensors| ShardWorker { sensors })
                .collect(),
            job_ports: (0..NUM_SHARDS).map(|_| unbounded()).collect(),
            reply_tx,
            reply_rx,
            schedule,
        }
    }

    /// One barrier: queues `jobs[k]` for shard `k`, then runs the
    /// queued jobs one shard at a time in schedule-chosen order.
    /// Replies land on the shared reply channel in that order, exactly
    /// as a real arrival order would, and are returned in it.
    fn barrier(&mut self, jobs: Vec<Job>) -> Vec<Reply> {
        for ((tx, _), job) in self.job_ports.iter().zip(jobs) {
            tx.send(job).expect("job receiver alive");
        }
        let mut pending: Vec<usize> = (0..NUM_SHARDS).collect();
        while !pending.is_empty() {
            let pick = self.schedule.choose(pending.len());
            let shard = pending.remove(pick);
            let job = self.job_ports[shard]
                .1
                .recv()
                .expect("a queued job per pending shard");
            if let Some(reply) = self.workers[shard].handle(job) {
                self.reply_tx.send(reply).expect("reply receiver alive");
            }
        }
        std::iter::from_fn(|| self.reply_rx.try_recv().ok()).collect()
    }
}

impl SensorStages for ExplorerBackend<'_> {
    type Error = Infallible;

    fn label(
        &mut self,
        states: &ModelStates,
        ids: &[SensorId],
        representatives: &[f64],
        votes: &mut [Option<usize>],
    ) -> Result<(), Infallible> {
        let replies = self.barrier(label_jobs(states, ids, representatives, NUM_SHARDS));
        collect_labels(replies, ids, votes);
        Ok(())
    }

    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) -> Result<(), Infallible> {
        let replies = self.barrier(step_jobs(num_slots, voted, outcome, NUM_SHARDS));
        collect_steps(replies, outcome);
        Ok(())
    }

    fn grow(&mut self, num_slots: usize) -> Result<(), Infallible> {
        self.barrier(vec![Job::Grow { num_slots }; NUM_SHARDS]);
        Ok(())
    }
}

/// The checked configuration: bootstrap skipped via explicit initial
/// states so every window takes the full label/vote/step path.
fn check_config() -> PipelineConfig {
    PipelineConfig {
        window_samples: WINDOW_SAMPLES,
        initial_states: Some(vec![vec![0.0], vec![10.0]]),
        observable_trim: 0.0,
        ..PipelineConfig::default()
    }
}

/// Three sensors sampling every second for three windows; sensor 2
/// reports a stuck value of 10.0 from the second window on, so later
/// windows raise raw alarms and exercise the step barrier.
fn check_trace() -> Trace {
    let mut records = Vec::new();
    for t in 0..(NUM_WINDOWS * WINDOW_SAMPLES as u64) {
        for s in 0..NUM_SENSORS {
            let faulty = s == 2 && t >= WINDOW_SAMPLES as u64;
            let value = if faulty { 10.0 } else { 0.0 };
            records.push(TraceRecord {
                time: t * SAMPLE_PERIOD,
                sensor: SensorId(s),
                payload: Payload::Delivered(Reading::new(vec![value])),
            });
        }
    }
    Trace::from_records(records)
}

/// Holds a sharded run to the serial one: window outcomes, then every
/// sensor's raw-alarm history and `M_CE` estimator, compared exactly.
fn check_identical(
    outcomes: &[WindowOutcome],
    sharded: &Pipeline,
    serial_outcomes: &[WindowOutcome],
    serial: &Pipeline,
) -> Result<(), String> {
    if outcomes != serial_outcomes {
        return Err(format!(
            "outcomes differ from serial run\nserial: {serial_outcomes:?}\nsharded: {outcomes:?}"
        ));
    }
    for id in (0..NUM_SENSORS).map(SensorId) {
        if sharded.m_ce(id).is_none() {
            return Err(format!("{id} missing"));
        }
        if sharded.raw_alarm_history(id) != serial.raw_alarm_history(id) {
            return Err(format!("{id} raw-alarm history diverged"));
        }
        if sharded.m_ce(id) != serial.m_ce(id) {
            return Err(format!("{id} M_CE estimator diverged"));
        }
    }
    Ok(())
}

/// Explores every schedule and checks bit-identical equivalence with
/// the serial pipeline. Returns the exploration report, or the first
/// divergence found.
pub fn explore() -> Result<ExploreReport, String> {
    let config = check_config();
    let trace = check_trace();

    // Serial reference run.
    let mut pipeline = Pipeline::new(config.clone(), SAMPLE_PERIOD);
    let serial_outcomes = pipeline.process_trace(&trace);
    if serial_outcomes.len() != NUM_WINDOWS as usize {
        return Err(format!(
            "scenario produced {} windows, expected {NUM_WINDOWS} — trace or config drifted",
            serial_outcomes.len()
        ));
    }
    let raw_alarms: usize = serial_outcomes.iter().map(|o| o.raw_alarms.len()).sum();
    if raw_alarms == 0 {
        return Err("scenario raised no raw alarms; the step barrier is not exercised".into());
    }

    let mut schedule = Schedule::new();
    let mut schedules = 0usize;
    loop {
        let mut coordinator = Coordinator::new(config.clone(), SAMPLE_PERIOD);
        let mut backend = ExplorerBackend::new(&config, &mut schedule);
        let Ok(outcomes) = coordinator.process_trace(&mut backend, &trace);
        let sensors = backend.workers.iter_mut().flat_map(|w| w.sensors.take());
        let sharded = Pipeline::from_parts(coordinator, sensors.collect());
        check_identical(&outcomes, &sharded, &serial_outcomes, &pipeline)
            .map_err(|what| format!("schedule {:?}: {what}", schedule.choices))?;

        schedules += 1;
        if !schedule.advance() {
            break;
        }
    }

    Ok(ExploreReport {
        schedules,
        windows: serial_outcomes.len(),
        sensors: NUM_SENSORS as usize,
    })
}

/// Result of an exhaustive fault-schedule exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Fault schedules executed (crash sites + reply faults).
    pub schedules: usize,
    /// Schedules that ended with a quarantined shard (budget checks).
    pub quarantines: usize,
}

/// Silences the panic hook for the harness's own injected panics
/// (payloads prefixed `chaos:`); real panics still print.
fn silence_chaos_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("chaos:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// A supervised engine over the model-check scenario with test-speed
/// timeouts and the given restart budget.
fn supervised_engine(budget: u32) -> Engine {
    Engine::new(check_config(), SAMPLE_PERIOD, NUM_SHARDS).with_supervisor(SupervisorConfig {
        max_shard_restarts: budget,
        reply_timeout: Duration::from_millis(200),
        restart_backoff: Duration::from_millis(1),
        ..SupervisorConfig::default()
    })
}

/// Explores crash schedules over the same 2-shard/3-window scenario as
/// [`explore`]: a worker panic at every (shard × window × barrier)
/// coordinate plus a dropped reply must each recover bit-identically to
/// the serial pipeline, and a panic that re-fires past the restart
/// budget must quarantine the shard's sensors — never abort. Returns
/// the exploration report, or the first divergence found.
pub fn explore_faults() -> Result<FaultReport, String> {
    silence_chaos_panics();
    let config = check_config();
    let trace = check_trace();

    let mut pipeline = Pipeline::new(config, SAMPLE_PERIOD);
    let serial_outcomes = pipeline.process_trace(&trace);

    // Kill-anywhere: one panic per coordinate, plus one dropped reply
    // (recovers through the reply timeout instead of the crash note).
    let mut plans: Vec<ChaosPlan> = Vec::new();
    for shard in 0..NUM_SHARDS {
        for window in 0..NUM_WINDOWS {
            for point in [FaultPoint::Label, FaultPoint::Step] {
                plans.push(ChaosPlan::panic_at(shard, window, point));
            }
        }
    }
    plans.push(ChaosPlan::new().with_fault(FaultSpec {
        shard: 1,
        window: 1,
        point: FaultPoint::Label,
        kind: FaultKind::DropReply,
        count: 1,
    }));

    let mut schedules = 0usize;
    for plan in plans {
        let run = supervised_engine(3)
            .with_chaos(plan.clone())
            .process_trace(&trace)
            .map_err(|e| format!("fault plan {plan:?}: engine aborted: {e}"))?;
        if run.degraded().is_some() {
            return Err(format!(
                "fault plan {plan:?}: quarantined within budget — recovery failed"
            ));
        }
        check_identical(run.outcomes(), run.pipeline(), &serial_outcomes, &pipeline)
            .map_err(|what| format!("fault plan {plan:?}: {what}"))?;
        schedules += 1;
    }

    // Budget exhaustion: the panic re-fires on every re-delivery until
    // shard 1 (sole owner of sensor 1) is quarantined. The run must
    // finish degraded, not abort.
    let budget = 1u32;
    let plan = ChaosPlan::new().with_fault(FaultSpec {
        shard: 1,
        window: 1,
        point: FaultPoint::Label,
        kind: FaultKind::Panic,
        count: budget + 1,
    });
    let run = supervised_engine(budget)
        .with_chaos(plan.clone())
        .process_trace(&trace)
        .map_err(|e| format!("quarantine plan {plan:?}: engine aborted: {e}"))?;
    let degraded = run
        .degraded()
        .ok_or_else(|| format!("quarantine plan {plan:?}: shard 1 was not quarantined"))?;
    if degraded.quarantined_sensors != [SensorId(1)] {
        return Err(format!(
            "quarantine plan {plan:?}: expected sensor 1 quarantined, got {:?}",
            degraded.quarantined_sensors
        ));
    }
    if run.windows_processed() != serial_outcomes.len() as u64 {
        return Err(format!(
            "quarantine plan {plan:?}: surviving shard stopped early ({} of {} windows)",
            run.windows_processed(),
            serial_outcomes.len()
        ));
    }
    schedules += 1;

    Ok(FaultReport {
        schedules,
        quarantines: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_enumerates_cross_product() {
        // Two binary choice points → 4 complete schedules.
        let mut s = Schedule::new();
        let mut seen = Vec::new();
        loop {
            let a = s.choose(2);
            let b = s.choose(2);
            seen.push((a, b));
            if !s.advance() {
                break;
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn schedule_handles_varying_widths() {
        let mut s = Schedule::new();
        let mut count = 0;
        loop {
            let a = s.choose(3);
            if a == 0 {
                s.choose(2);
            }
            count += 1;
            if !s.advance() {
                break;
            }
        }
        // a=0 explores 2 sub-branches, a=1 and a=2 one each.
        assert_eq!(count, 4);
    }

    #[test]
    fn exploration_confirms_equivalence() {
        let report = explore().expect("no schedule may diverge");
        assert!(
            report.schedules >= 24,
            "only {} schedules explored",
            report.schedules
        );
        assert_eq!(report.windows, NUM_WINDOWS as usize);
    }

    #[test]
    fn fault_exploration_confirms_recovery() {
        let report = explore_faults().expect("no fault schedule may diverge");
        // 2 shards × 3 windows × 2 barriers panics + 1 dropped reply
        // + 1 budget-exhaustion quarantine.
        assert_eq!(report.schedules, 14);
        assert_eq!(report.quarantines, 1);
    }
}
