//! Checkpoint round-trip at the system level: snapshotting every
//! sensor through the text codec and restoring must preserve the
//! operator-facing outputs — diagnosis, confidence, alarm and track
//! history — bit-for-bit, and a restored worker must continue exactly
//! like the original.

use sentinet_core::checkpoint::{decode_shard, encode_shard};
use sentinet_core::{
    Coordinator, Pipeline, PipelineConfig, SensorMap, SensorRuntime, SensorStages, WindowOutcome,
};
use sentinet_engine::protocol::{
    collect_labels, collect_steps, label_jobs, step_jobs, Job, Reply, ShardWorker,
};
use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
use sentinet_sim::{gdi, simulate, SensorId, Trace, DAY_S};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// A trivially faithful one-worker backend: every job runs in-process,
/// so the worker's sensors are reachable directly.
struct LocalBackend {
    worker: ShardWorker,
}

impl LocalBackend {
    fn run(&mut self, jobs: Vec<Job>) -> Vec<Reply> {
        jobs.into_iter()
            .filter_map(|job| self.worker.handle(job))
            .collect()
    }
}

impl SensorStages for LocalBackend {
    type Error = Infallible;

    fn label(
        &mut self,
        states: &sentinet_cluster::ModelStates,
        ids: &[SensorId],
        representatives: &[f64],
        votes: &mut [Option<usize>],
    ) -> Result<(), Infallible> {
        let replies = self.run(label_jobs(states, ids, representatives, 1));
        assert_eq!(replies.len(), 1, "label replies");
        collect_labels(replies, ids, votes);
        Ok(())
    }

    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) -> Result<(), Infallible> {
        let replies = self.run(step_jobs(num_slots, voted, outcome, 1));
        assert_eq!(replies.len(), 1, "step replies");
        collect_steps(replies, outcome);
        Ok(())
    }

    fn grow(&mut self, num_slots: usize) -> Result<(), Infallible> {
        assert!(self.run(vec![Job::Grow { num_slots }]).is_empty());
        Ok(())
    }
}

fn local_worker(config: &PipelineConfig) -> ShardWorker {
    ShardWorker {
        sensors: SensorMap::new(config.clone()),
    }
}

/// A worker restarted from checkpointed sensors, as the supervisor's.
fn restored(
    config: PipelineConfig,
    snapshots: Vec<(SensorId, sentinet_core::SensorSnapshot)>,
) -> ShardWorker {
    ShardWorker {
        sensors: SensorMap::restore(config, snapshots).expect("snapshots are valid"),
    }
}

fn scenario() -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 3 * DAY_S;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(41);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(2),
            FaultModel::StuckAt {
                value: vec![15.0, 1.0],
            },
            DAY_S,
        )],
        &cfg.ranges,
        &mut rng,
    );
    (faulty, cfg.sample_period)
}

#[test]
fn restore_preserves_classification_and_alarm_outputs() {
    let (trace, period) = scenario();
    let config = PipelineConfig::default();

    // Serial reference for the classification outputs.
    let mut pipeline = Pipeline::new(config.clone(), period);
    pipeline.process_trace(&trace);

    let mut backend = LocalBackend {
        worker: local_worker(&config),
    };
    let mut coordinator = Coordinator::new(config.clone(), period);
    let Ok(_) = coordinator.process_trace(&mut backend, &trace);
    let global = coordinator.global();

    let shard = backend.worker.sensors.snapshots();
    let decoded = decode_shard(&encode_shard(&shard)).expect("codec round trip");
    assert_eq!(decoded, shard, "codec changed the snapshot");

    let mut restored_worker = restored(config, decoded);
    let originals = backend.worker.sensors.take();
    let restored = restored_worker.sensors.take();
    assert_eq!(
        originals.keys().collect::<Vec<_>>(),
        restored.keys().collect::<Vec<_>>()
    );
    assert!(originals.keys().any(|&id| id == SensorId(2)));

    for (id, original) in &originals {
        let twin = &restored[id];
        // Classification and confidence from the restored state must be
        // bit-identical to both the original runtime and the pipeline.
        assert_eq!(
            global.classify(Some(original)),
            global.classify(Some(twin)),
            "{id}: diagnosis changed across restore"
        );
        let (diag_orig, conf_orig) = global.classify_with_confidence(Some(original));
        let (diag_twin, conf_twin) = global.classify_with_confidence(Some(twin));
        assert_eq!(diag_orig, diag_twin, "{id}");
        assert_eq!(conf_orig.to_bits(), conf_twin.to_bits(), "{id}: confidence");
        assert_eq!(diag_twin, pipeline.classify(*id), "{id}: vs serial");

        // Alarm and track products survive the round trip exactly.
        assert_eq!(original.raw_history(), twin.raw_history(), "{id}");
        assert_eq!(original.tracks(), twin.tracks(), "{id}");
        assert_eq!(original.ever_alarmed(), twin.ever_alarmed(), "{id}");
        assert_eq!(original.m_ce(), twin.m_ce(), "{id}");
    }
}

#[test]
fn restored_worker_continues_bit_identically_mid_run() {
    let (trace, period) = scenario();
    let config = PipelineConfig::default();

    let mut backend = LocalBackend {
        worker: local_worker(&config),
    };
    let Ok(_) = Coordinator::new(config.clone(), period).process_trace(&mut backend, &trace);

    // Restore mid-state, then step both workers through the same
    // additional windows: every reply must match.
    let decoded =
        decode_shard(&encode_shard(&backend.worker.sensors.snapshots())).expect("round trip");
    let mut twin = restored(config, decoded);
    let ids: Vec<SensorId> = backend
        .worker
        .sensors
        .snapshots()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    let start = 1000u64;
    for w in 0..8u64 {
        let labels: Vec<(SensorId, usize)> = ids
            .iter()
            .map(|&id| (id, if (w + u64::from(id.0)) % 3 == 0 { 1 } else { 0 }))
            .collect();
        let job = Job::Step {
            window_index: start + w,
            correct: 0,
            num_slots: 2,
            labels,
        };
        let (a, b) = (backend.worker.handle(job.clone()), twin.handle(job));
        match (a, b) {
            (
                Some(Reply::Stepped { raw, filtered }),
                Some(Reply::Stepped {
                    raw: raw_t,
                    filtered: filtered_t,
                }),
            ) => {
                assert_eq!(raw, raw_t, "window {w}: raw alarms diverged");
                assert_eq!(filtered, filtered_t, "window {w}: filtered alarms diverged");
            }
            other => panic!("unexpected replies {other:?}"),
        }
    }
    let (a, b): (BTreeMap<_, SensorRuntime>, BTreeMap<_, SensorRuntime>) =
        (backend.worker.sensors.take(), twin.sensors.take());
    for (id, original) in &a {
        assert_eq!(original.m_ce(), b[id].m_ce(), "{id}: M_CE diverged");
        assert_eq!(original.tracks(), b[id].tracks(), "{id}: tracks diverged");
    }
}
