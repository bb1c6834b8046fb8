//! `sentinet-engine` — names the benchmark calls, over the serial
//! [`Pipeline`]: the Eq. 4 vote is a barrier between every sensor's label
//! and its step, so shards could not overlap windows; they are gone, and
//! the shard count is checked (≥ 1) and ignored. Kept only because
//! `benchmark/src/analyze.rs:93`, `:238` and `ladder.rs:514` call it.
//! ```
//! let engine = sentinet_engine::Engine::new(Default::default(), 300, 2);
//! let Ok(run) = engine.process_trace(&sentinet_sim::Trace::new());
//! assert!(run.outcomes().is_empty() && run.windows_processed() == 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use sentinet_core::{Pipeline, PipelineConfig, PipelineReport, WindowOutcome};
use sentinet_sim::Trace;

/// A pipeline configuration and sample period.
#[derive(Debug, Clone)]
pub struct Engine(PipelineConfig, u64);

impl Engine {
    /// As [`Pipeline::new`]; panics also on `num_shards == 0`.
    pub fn new(config: PipelineConfig, sample_period: u64, num_shards: usize) -> Self {
        config.validate();
        assert!(sample_period > 0, "sample period must be positive");
        assert!(num_shards > 0, "need at least one shard");
        Self(config, sample_period)
    }

    /// [`Pipeline::process_trace`]; never fails.
    pub fn process_trace(&self, trace: &Trace) -> Result<EngineRun, std::convert::Infallible> {
        let mut pipeline = Pipeline::new(self.0.clone(), self.1);
        let outcomes = pipeline.process_trace(trace);
        Ok(EngineRun { pipeline, outcomes })
    }
}

/// Every window outcome of a run and the pipeline it ended as.
#[derive(Debug)]
pub struct EngineRun {
    pipeline: Pipeline,
    outcomes: Vec<WindowOutcome>,
}

#[allow(missing_docs)] // each is the `Pipeline` query of the same name
impl EngineRun {
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }
    pub fn windows_processed(&self) -> u64 {
        self.pipeline.windows_processed()
    }
    pub fn report(&self) -> PipelineReport {
        self.pipeline.report()
    }
}
