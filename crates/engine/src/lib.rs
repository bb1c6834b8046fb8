//! `sentinet-engine` — the detection pipeline with its per-sensor
//! stages fanned out over scoped threads.
//!
//! The window pass, Eqs. 2–4 included, is `sentinet-core`'s
//! ([`Coordinator`]); the engine answers its per-sensor half
//! ([`SensorStages`]: step, grow) with one [`SensorMap`] per shard,
//! sensor *s* on shard `s % num_shards`. The Eq. 4 majority vote before
//! the step stage is a barrier, so windows never overlap. Every
//! per-sensor float operation runs in serial order on one thread, so
//! the output is **bit-for-bit identical** to the serial [`Pipeline`]
//! at any shard count; at one shard the engine *is* that pipeline. A
//! panic in a shard propagates to the caller.
//!
//! The engine is slower than the pipeline; scaling out and crash
//! isolation are the federation tier's. [`Engine::new`],
//! [`Engine::process_trace`] and [`EngineRun`] keep their shapes only
//! because the benchmark (`benchmark/`), this crate's only dependent,
//! measures them; once it stops, the crate goes.
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
//! let Ok(run) = engine.process_trace(&trace);
//! assert!(!run.outcomes().is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use sentinet_core::{
    Coordinator, Pipeline, PipelineConfig, PipelineReport, SensorMap, SensorStages, WindowOutcome,
};
use sentinet_sim::{SensorId, Trace};
use std::convert::Infallible;

/// The pipeline over one trace with its per-sensor stages on
/// `num_shards` scoped threads.
#[derive(Debug, Clone)]
pub struct Engine {
    config: PipelineConfig,
    sample_period: u64,
    num_shards: usize,
}

impl Engine {
    /// Creates an engine; `sample_period` as in [`Pipeline::new`],
    /// `num_shards ≥ 1` shards (1 = the serial pipeline, no threads).
    ///
    /// # Panics
    ///
    /// On an invalid configuration, `sample_period == 0` or
    /// `num_shards == 0`.
    pub fn new(config: PipelineConfig, sample_period: u64, num_shards: usize) -> Self {
        config.validate();
        assert!(sample_period > 0, "sample period must be positive");
        assert!(num_shards > 0, "need at least one shard");
        Self {
            config,
            sample_period,
            num_shards,
        }
    }

    /// Processes a whole trace. Never fails: a shard's panic is the
    /// caller's. (The `Result` stays for the benchmark, which maps it.)
    pub fn process_trace(&self, trace: &Trace) -> Result<EngineRun, Infallible> {
        if self.num_shards == 1 {
            let mut pipeline = Pipeline::new(self.config.clone(), self.sample_period);
            let outcomes = pipeline.process_trace(trace);
            return Ok(EngineRun { pipeline, outcomes });
        }
        let mut coordinator = Coordinator::new(self.config.clone(), self.sample_period);
        let maps = (0..self.num_shards).map(|_| SensorMap::new(self.config.clone()));
        let mut shards = Shards(maps.collect());
        let outcomes = coordinator.process_trace(&mut shards, trace);
        let sensors = shards.0.iter_mut().flat_map(SensorMap::take).collect();
        let pipeline = Pipeline::from_parts(coordinator, sensors);
        Ok(EngineRun { pipeline, outcomes })
    }
}

/// A completed engine run: every window outcome and the pipeline the
/// run ended as, answering every post-run query.
#[derive(Debug)]
pub struct EngineRun {
    pipeline: Pipeline,
    outcomes: Vec<WindowOutcome>,
}

impl EngineRun {
    /// Every processed window, in order.
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    /// The run's final state as a serial pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Number of windows fully processed (post-bootstrap).
    pub fn windows_processed(&self) -> u64 {
        self.pipeline.windows_processed()
    }

    /// The operator-facing snapshot, identical to [`Pipeline::report`].
    pub fn report(&self) -> PipelineReport {
        self.pipeline.report()
    }
}

/// One [`SensorMap`] per shard: the engine's [`SensorStages`].
struct Shards(Vec<SensorMap>);

impl SensorStages for Shards {
    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) {
        let n = self.0.len();
        let mut batches = vec![Vec::new(); n];
        for (id, label) in voted {
            batches[usize::from(id.0) % n].push((id, label));
        }
        let local = WindowOutcome {
            index: outcome.index,
            correct: outcome.correct,
            ..WindowOutcome::default()
        };
        let mut stepped = vec![local; n];
        std::thread::scope(|scope| {
            for ((shard, batch), stepped) in self.0.iter_mut().zip(batches).zip(&mut stepped) {
                scope.spawn(move || shard.step(num_slots, batch.into_iter(), stepped));
            }
        });
        for shard in stepped {
            outcome.raw_alarms.extend(shard.raw_alarms);
            outcome.filtered_alarms.extend(shard.filtered_alarms);
        }
        outcome.raw_alarms.sort_unstable();
        outcome.filtered_alarms.sort_unstable();
    }

    fn grow(&mut self, num_slots: usize) {
        for shard in &mut self.0 {
            shard.grow(num_slots);
        }
    }
}
