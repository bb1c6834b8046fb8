//! The collector-node detection pipeline (paper Fig. 1).
//!
//! One [`Pipeline`] instance runs on the data collector (base station /
//! cluster head) and executes, per observation window:
//!
//! 1. **Windowing** (Eq. 1) — incremental, via [`crate::window::Windower`];
//! 2. **Model State Identification** — online clustering with merge and
//!    spawn ([`sentinet_cluster::ModelStates`]), bootstrapped from the
//!    first window by k-means when no historical states are given;
//! 3. **Observable / Correct State Identification** and per-sensor
//!    mapping (Eqs. 2–4);
//! 4. **Alarm Generation** — raw alarm for every sensor whose label
//!    disagrees with the correct state;
//! 5. **Alarm Filtering** — k-of-n or SPRT per sensor;
//! 6. **Error/Attack Track Management** — per-sensor tracks feeding the
//!    `M_CE` estimators with `e_i = l_j` or ⊥;
//! 7. **HMM estimation** — the global `M_CO` (correct → observable) and
//!    per-sensor `M_CE` (correct → error) models, plus the Markov
//!    models `M_C` and `M_O`;
//! 8. **Classification** on demand via [`Pipeline::classify`].
//!
//! The stage order is written once, in the [`Coordinator`]'s window
//! pass, over the one seam that differs between execution modes: who
//! runs the per-sensor stages ([`SensorStages`]: label, step, grow). A
//! [`Pipeline`] is a coordinator plus the in-process [`SensorMap`] that
//! runs them infallibly; the sharded `sentinet-engine` puts its
//! supervised worker pool behind the same seam and the `xtask` model
//! checker a schedule-controlled one, so all three run this pass.
//!
//! In steady state — every sensor seen, buffers warm — a reading that
//! completes no window allocates nothing (windows and their sample
//! buffers are recycled), and one that completes a window allocates a
//! constant two `Vec`s (the completed window's, the outcome's) whatever
//! the sensor count: Eqs. 2–4 and the clustering round run out of the
//! coordinator's scratch, outcomes come from a pool when the caller
//! hands them back. The per-sensor alarm histories grow (amortised) and
//! a spawned state allocates its slot; `tests/steady_state_alloc.rs`
//! counts allocator calls to hold this.

use crate::classify::{AttackType, Diagnosis};
use crate::config::PipelineConfig;
use crate::runtime::{GlobalModel, SensorMap, SensorRuntime, SensorStages};
use crate::window::{ObservationWindow, WindowScratch, Windower};
use sentinet_cluster::{ModelStates, StateEvent};
use sentinet_hmm::{MarkovChain, OnlineHmmEstimator};
use sentinet_sim::{Reading, SensorId, Timestamp, Trace};
use std::collections::BTreeMap;

pub use crate::runtime::{TrackRecord, BOT_SYMBOL};

/// Cap on pooled [`WindowOutcome`]s retained for reuse.
const MAX_SPARE_OUTCOMES: usize = 64;

/// Summary of one processed observation window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowOutcome {
    /// Window index (0-based since stream start).
    pub index: u64,
    /// Window start time.
    pub start: Timestamp,
    /// Observable environment state `o_i`.
    pub observable: usize,
    /// Correct environment state `c_i`.
    pub correct: usize,
    /// Sensors whose window label disagreed with `c_i` (raw alarms).
    pub raw_alarms: Vec<SensorId>,
    /// Sensors whose filtered alarm is raised after this window.
    pub filtered_alarms: Vec<SensorId>,
    /// Structural clustering events (spawns/merges) this window.
    pub cluster_events: Vec<StateEvent>,
}

/// The collector's side of Fig. 1: the window pass and all it keeps
/// between windows — global model, windower, scratch, outcome pool —
/// except the sensors, which live behind [`SensorStages`]. A
/// [`Pipeline`] pairs one with a [`SensorMap`]; a run whose sensors
/// live elsewhere drives one directly and can hand it to
/// [`Pipeline::from_parts`] once the sensors come home.
#[derive(Debug)]
pub struct Coordinator {
    global: GlobalModel,
    windower: Windower,
    scratch: WindowScratch,
    spare_outcomes: Vec<WindowOutcome>,
}

impl Coordinator {
    /// Creates a coordinator; `config` and `sample_period` as in
    /// [`Pipeline::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PipelineConfig::validate`]) or `sample_period == 0`.
    pub fn new(config: PipelineConfig, sample_period: u64) -> Self {
        assert!(sample_period > 0, "sample period must be positive");
        let windower = Windower::new(config.window_samples as u64 * sample_period);
        Self::resume(GlobalModel::new(config), windower)
    }

    fn resume(global: GlobalModel, windower: Windower) -> Self {
        Self {
            global,
            windower,
            scratch: WindowScratch::new(),
            spare_outcomes: Vec::new(),
        }
    }

    /// The global model (states, `M_CO`, histories).
    pub fn global(&self) -> &GlobalModel {
        &self.global
    }

    /// Processes an entire trace (delivered records only — lost and
    /// malformed packets never reach the collector's analysis, as in
    /// the paper) with `stages` running the per-sensor half, and
    /// flushes the final partial window.
    ///
    /// # Errors
    ///
    /// The first error of a stage; the run cannot continue past it.
    pub fn process_trace<S: SensorStages>(
        &mut self,
        stages: &mut S,
        trace: &Trace,
    ) -> Result<Vec<WindowOutcome>, S::Error> {
        let mut outcomes = Vec::new();
        for (time, sensor, reading) in trace.delivered() {
            outcomes.extend(self.push_values(stages, time, sensor, reading.values())?);
        }
        outcomes.extend(self.finalize(stages)?);
        Ok(outcomes)
    }

    fn push_values<S: SensorStages>(
        &mut self,
        stages: &mut S,
        time: Timestamp,
        sensor: SensorId,
        values: &[f64],
    ) -> Result<Vec<WindowOutcome>, S::Error> {
        let completed = self.windower.push(time, sensor, values);
        if completed.is_empty() {
            return Ok(Vec::new());
        }
        let mut outcomes = Vec::new();
        for window in completed {
            outcomes.extend(self.analyze_window(stages, &window)?);
            self.windower.recycle(window);
        }
        Ok(outcomes)
    }

    fn finalize<S: SensorStages>(
        &mut self,
        stages: &mut S,
    ) -> Result<Option<WindowOutcome>, S::Error> {
        let Some(window) = self.windower.finish() else {
            return Ok(None);
        };
        let outcome = self.analyze_window(stages, &window)?;
        self.windower.recycle(window);
        Ok(outcome)
    }

    /// One window through the Fig. 1 stage order. `Ok(None)` means the
    /// window was dropped: consumed by the bootstrap, empty, or without
    /// a single vote.
    fn analyze_window<S: SensorStages>(
        &mut self,
        stages: &mut S,
        window: &ObservationWindow,
    ) -> Result<Option<WindowOutcome>, S::Error> {
        if !self.global.absorb_bootstrap(window) {
            return Ok(None);
        }

        // Eq. 2: the window aggregate, a model state to name it, and
        // the observable state.
        let trim = self.global.config().observable_trim;
        let mean = window.trimmed_mean_with(trim, &mut self.scratch);
        if self.global.cover_window_mean(mean) {
            stages.grow(self.global.num_slots())?;
        }
        let (Some(mean), Some(states)) = (mean, self.global.states()) else {
            return Ok(None);
        };
        let Some((observable, _)) = states.nearest(mean) else {
            return Ok(None);
        };

        // Eq. 3 is a per-sensor stage; Eq. 4 is the barrier every later
        // stage waits on.
        let (ids, representatives, votes) = self.scratch.represent(window);
        stages.label(states, ids, representatives, votes)?;
        let majority_fraction = self.global.config().majority_fraction;
        let Some((correct, decisive)) = self.scratch.elect(states, majority_fraction) else {
            return Ok(None);
        };
        if decisive {
            self.global.record_decisive(correct, observable);
        }

        // Per-sensor alarms, filtering, tracks, M_CE updates.
        let mut outcome = self.spare_outcomes.pop().unwrap_or_default();
        outcome.raw_alarms.clear();
        outcome.filtered_alarms.clear();
        outcome.index = self.global.windows_processed();
        outcome.start = window.start;
        outcome.observable = observable;
        outcome.correct = correct;
        if decisive {
            let num_slots = self.global.num_slots();
            stages.step(num_slots, self.scratch.voted(), &mut outcome)?;
        }

        // Model-state maintenance (Eqs. 5–6 + merge/spawn) on the
        // representatives and labels Eq. 3 left in the scratch, then
        // grow every estimator to the new slot count.
        let (cluster_events, grew) = self
            .global
            .finish_window_labeled(self.scratch.representatives(), self.scratch.labels());
        if grew {
            stages.grow(self.global.num_slots())?;
        }
        outcome.cluster_events = cluster_events;
        Ok(Some(outcome))
    }
}

/// The full detection/diagnosis pipeline of the paper.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sentinet_core::{Pipeline, PipelineConfig};
/// use sentinet_sim::{gdi, simulate};
///
/// let cfg = gdi::day_config();
/// let trace = simulate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(1));
/// let mut pipeline = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
/// let outcomes = pipeline.process_trace(&trace);
/// assert!(!outcomes.is_empty());
/// ```
#[derive(Debug)]
pub struct Pipeline {
    coordinator: Coordinator,
    sensors: SensorMap,
}

impl Pipeline {
    /// Creates a pipeline; `sample_period` is the sensor sampling period
    /// in seconds (window duration = `config.window_samples ×
    /// sample_period`, per Table 1's `w`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PipelineConfig::validate`]) or `sample_period == 0`.
    pub fn new(config: PipelineConfig, sample_period: u64) -> Self {
        Self::from_parts(Coordinator::new(config, sample_period), BTreeMap::new())
    }

    /// The pipeline a run ends as when its sensors lived elsewhere:
    /// the `coordinator` that drove it and the `sensors` it stepped.
    pub fn from_parts(
        coordinator: Coordinator,
        runtimes: BTreeMap<SensorId, SensorRuntime>,
    ) -> Self {
        let config = coordinator.global.config().clone();
        Self {
            coordinator,
            sensors: SensorMap { config, runtimes },
        }
    }

    /// Feeds one delivered reading; returns outcomes for any windows
    /// completed by this reading.
    ///
    /// # Panics
    ///
    /// Panics if readings arrive out of time order.
    pub fn push_reading(
        &mut self,
        time: Timestamp,
        sensor: SensorId,
        reading: &Reading,
    ) -> Vec<WindowOutcome> {
        self.push_values(time, sensor, reading.values())
    }

    /// Feeds one delivered reading as a raw value slice — the
    /// allocation-free ingest path.
    ///
    /// # Panics
    ///
    /// Panics if readings arrive out of time order or `values` is
    /// empty.
    pub fn push_values(
        &mut self,
        time: Timestamp,
        sensor: SensorId,
        values: &[f64],
    ) -> Vec<WindowOutcome> {
        let Ok(outcomes) = self
            .coordinator
            .push_values(&mut self.sensors, time, sensor, values);
        outcomes
    }

    /// Processes an entire trace (delivered records only — lost and
    /// malformed packets never reach the collector's analysis, as in
    /// the paper) and flushes the final partial window.
    pub fn process_trace(&mut self, trace: &Trace) -> Vec<WindowOutcome> {
        let Ok(outcomes) = self.coordinator.process_trace(&mut self.sensors, trace);
        outcomes
    }

    /// Flushes the in-progress window at end of stream.
    pub fn finalize(&mut self) -> Vec<WindowOutcome> {
        let Ok(outcome) = self.coordinator.finalize(&mut self.sensors);
        Vec::from_iter(outcome)
    }

    /// Returns a consumed outcome to the pipeline's pool so its alarm
    /// vectors are reused by later windows (optional; capped).
    pub fn recycle_outcome(&mut self, outcome: WindowOutcome) {
        let spare = &mut self.coordinator.spare_outcomes;
        if spare.len() < MAX_SPARE_OUTCOMES {
            spare.push(outcome);
        }
    }

    fn global(&self) -> &GlobalModel {
        &self.coordinator.global
    }

    fn sensor(&self, sensor: SensorId) -> Option<&SensorRuntime> {
        self.sensors.runtimes.get(&sensor)
    }

    /// Number of windows fully processed (post-bootstrap).
    pub fn windows_processed(&self) -> u64 {
        self.global().windows_processed()
    }

    /// The current model states, once bootstrapped.
    pub fn model_states(&self) -> Option<&ModelStates> {
        self.global().states()
    }

    /// The global `M_CO` estimator, once bootstrapped.
    pub fn m_co(&self) -> Option<&OnlineHmmEstimator> {
        self.global().m_co()
    }

    /// The per-sensor `M_CE` estimator.
    pub fn m_ce(&self, sensor: SensorId) -> Option<&OnlineHmmEstimator> {
        self.sensor(sensor).map(SensorRuntime::m_ce)
    }

    /// The error/attack-free Markov model `M_C` of the environment —
    /// the pipeline's user-facing deliverable (paper Fig. 7).
    pub fn correct_model(&self) -> Option<MarkovChain> {
        self.global().correct_model()
    }

    /// The Markov model `M_O` of the observable states (useful for the
    /// random-noise discussion of §3.4).
    pub fn observable_model(&self) -> Option<MarkovChain> {
        self.global().observable_model()
    }

    /// Builds the operator-facing snapshot of the pipeline's findings.
    pub fn report(&self) -> crate::PipelineReport {
        crate::PipelineReport::build(self.global(), &self.sensors.runtimes)
    }

    /// Sensors seen so far.
    pub fn sensor_ids(&self) -> Vec<SensorId> {
        self.sensors.runtimes.keys().copied().collect()
    }

    /// Per-sensor runtime snapshots in sensor-id order, in the format
    /// [`crate::checkpoint::encode_shard`] accepts. External recovery
    /// layers (the gateway's WAL checkpointing) use this to fingerprint
    /// pipeline state at a known ingest cursor and verify a replayed
    /// run reproduces it bit-exactly.
    pub fn sensor_snapshots(&self) -> Vec<(SensorId, crate::checkpoint::SensorSnapshot)> {
        self.sensors.snapshots()
    }

    /// Captures the complete pipeline state — global model, in-progress
    /// window, and every sensor runtime — as a restore-point
    /// [`PipelineSnapshot`](crate::checkpoint::PipelineSnapshot).
    /// Restoring it with [`Pipeline::from_snapshot`] under the same
    /// config and sample period yields a pipeline that continues
    /// bit-identically, which is what lets the gateway's WAL retention
    /// delete replayed log prefixes without weakening its recovery
    /// proof.
    pub fn snapshot(&self) -> crate::checkpoint::PipelineSnapshot {
        crate::checkpoint::PipelineSnapshot {
            global: self.global().snapshot(),
            windower: self.coordinator.windower.snapshot(),
            sensors: self.sensor_snapshots(),
        }
    }

    /// Rebuilds a pipeline mid-stream from a restore-point snapshot
    /// taken under the same `config` and `sample_period`.
    ///
    /// # Errors
    ///
    /// [`crate::checkpoint::CheckpointError::Invalid`] if any embedded
    /// model state fails re-validation (corrupt checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `sample_period == 0`
    /// (as [`Pipeline::new`]).
    pub fn from_snapshot(
        config: PipelineConfig,
        sample_period: u64,
        snapshot: crate::checkpoint::PipelineSnapshot,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        assert!(sample_period > 0, "sample period must be positive");
        let duration = config.window_samples as u64 * sample_period;
        let windower = Windower::from_snapshot(duration, &snapshot.windower)?;
        let global = GlobalModel::from_snapshot(config.clone(), snapshot.global)?;
        Ok(Self {
            coordinator: Coordinator::resume(global, windower),
            sensors: SensorMap::restore(config, snapshot.sensors)?,
        })
    }

    /// The raw-alarm history of a sensor as `(window, raw)` pairs
    /// (paper Fig. 12).
    pub fn raw_alarm_history(&self, sensor: SensorId) -> Option<&[(u64, bool)]> {
        self.sensor(sensor).map(SensorRuntime::raw_history)
    }

    /// The error/attack tracks opened for a sensor.
    pub fn tracks(&self, sensor: SensorId) -> Option<&[TrackRecord]> {
        self.sensor(sensor).map(SensorRuntime::tracks)
    }

    /// Whether a filtered alarm was ever raised for the sensor.
    pub fn ever_alarmed(&self, sensor: SensorId) -> bool {
        self.sensor(sensor)
            .map(SensorRuntime::ever_alarmed)
            .unwrap_or(false)
    }

    /// Classifies the network-level situation: `Some(attack)` when the
    /// `M_CO` structure carries an attack signature. Memoized on the
    /// model generations — repeated calls after unchanged windows are
    /// O(1).
    pub fn network_attack(&self) -> Option<AttackType> {
        self.global().network_attack()
    }

    /// Classifies one sensor per the paper's Fig. 5 tree.
    ///
    /// A sensor that never raised a filtered alarm is
    /// [`Diagnosis::ErrorFree`]; if the network-level `M_CO` shows an
    /// attack signature, every alarmed sensor reports that attack;
    /// otherwise the sensor's own `M_CE` decides the error type. The
    /// verdict is memoized on the estimator generations — repeated
    /// calls after unchanged windows are O(1).
    pub fn classify(&self, sensor: SensorId) -> Diagnosis {
        self.global().classify(self.sensor(sensor))
    }

    /// Classifies one sensor and reports the confidence of the verdict
    /// — the normalized margin by which the deciding structural
    /// statistic cleared its threshold (see [`crate::confidence`]).
    pub fn classify_with_confidence(&self, sensor: SensorId) -> (Diagnosis, f64) {
        self.global().classify_with_confidence(self.sensor(sensor))
    }

    /// Classifies every sensor seen so far.
    pub fn classify_all(&self) -> BTreeMap<SensorId, Diagnosis> {
        let sensors = self.sensors.runtimes.iter();
        sensors
            .map(|(&id, rt)| (id, self.global().classify(Some(rt))))
            .collect()
    }

    /// The `(window, correct, observable)` state sequence of every
    /// decisive window — the paper's `c_i` and `o_i` series.
    pub fn state_history(&self) -> &[(u64, usize, usize)] {
        self.global().state_history()
    }

    /// The error signature of one sensor: for each hidden state with
    /// evidence (and not ⊥-dominated), the dominant error symbol of its
    /// `M_CE` row. Symbols are `slot + 1` indices (0 = ⊥), matching
    /// [`BOT_SYMBOL`].
    fn error_signature(&self, sensor: SensorId) -> BTreeMap<usize, usize> {
        let Some(state) = self.sensor(sensor) else {
            return BTreeMap::new();
        };
        let b = state.m_ce().observation();
        state
            .m_ce()
            .observation_evidence()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= self.global().config().min_state_evidence)
            .filter(|(i, _)| b[(*i, BOT_SYMBOL)] <= 0.5)
            .filter_map(|(i, _)| {
                let row = b.row(i);
                let dominant = row
                    .iter()
                    .enumerate()
                    .skip(1) // never pick ⊥ as the signature symbol
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(k, _)| k)?;
                Some((i, dominant))
            })
            .collect()
    }

    /// Groups the sensors that ever raised a filtered alarm by the
    /// similarity of their error behaviour: two sensors belong to the
    /// same group when their `M_CE` signatures (hidden state → dominant
    /// error symbol) agree on more than half of their shared hidden
    /// states.
    ///
    /// Coordination is the hallmark of the paper's attack model — an
    /// adversary reprograms *several* nodes to forge the same values —
    /// while independent faults produce idiosyncratic signatures. The
    /// grouping therefore separates attack participants from a sensor
    /// that merely happens to be faulty during an attack (which the
    /// Fig. 5 tree alone cannot; see `examples/server_farm.rs`).
    pub fn coordinated_groups(&self) -> Vec<Vec<SensorId>> {
        let alarmed: Vec<SensorId> = self
            .sensor_ids()
            .into_iter()
            .filter(|&id| self.ever_alarmed(id))
            .collect();
        let signatures: Vec<BTreeMap<usize, usize>> =
            alarmed.iter().map(|&id| self.error_signature(id)).collect();
        let similar = |a: &BTreeMap<usize, usize>, b: &BTreeMap<usize, usize>| -> bool {
            let shared: Vec<_> = a.keys().filter(|k| b.contains_key(k)).collect();
            if shared.is_empty() {
                return false;
            }
            let agree = shared.iter().filter(|&&&k| a[&k] == b[&k]).count();
            2 * agree >= shared.len()
        };
        // Greedy agglomeration: join the first group containing any
        // similar member (single-linkage).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, sig) in signatures.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|g| g.iter().any(|&j| similar(&signatures[j], sig)))
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        groups
            .into_iter()
            .map(|g| g.into_iter().map(|i| alarmed[i]).collect())
            .collect()
    }

    /// Offline Viterbi smoothing: decodes the most likely hidden-state
    /// path for the recorded observable sequence under the learned
    /// `M_CO`. On clean data this agrees with the majority-voted
    /// correct states; large disagreements flag windows whose majority
    /// estimate the temporal model considers implausible.
    ///
    /// Returns `None` before bootstrap or when no decisive window has
    /// been processed; also `None` if the learned model assigns the
    /// observed sequence zero probability (possible after structural
    /// growth mid-stream).
    pub fn smoothed_correct_states(&self) -> Option<Vec<usize>> {
        self.global().smoothed_correct_states()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        self.global().config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sentinet_sim::{gdi, simulate};
    use std::convert::Infallible;

    fn quiet_day_trace() -> (Trace, u64) {
        let mut cfg = gdi::day_config();
        cfg.loss_prob = 0.0;
        cfg.malformed_prob = 0.0;
        (
            simulate(&cfg, &mut StdRng::seed_from_u64(11)),
            cfg.sample_period,
        )
    }

    #[test]
    fn clean_day_bootstraps_and_produces_windows() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        let outcomes = p.process_trace(&trace);
        // 24 one-hour windows; the first also seeds the bootstrap but is
        // still identified and processed.
        assert_eq!(outcomes.len(), 24, "{}", outcomes.len());
        assert!(p.model_states().is_some());
        assert!(p.m_co().is_some());
    }

    #[test]
    fn explicit_initial_states_skip_bootstrap() {
        let (trace, period) = quiet_day_trace();
        let cfg = PipelineConfig {
            initial_states: Some(vec![
                vec![12.0, 94.0],
                vec![17.0, 84.0],
                vec![24.0, 70.0],
                vec![31.0, 56.0],
            ]),
            ..Default::default()
        };
        let mut p = Pipeline::new(cfg, period);
        let outcomes = p.process_trace(&trace);
        assert_eq!(outcomes.len(), 24);
    }

    #[test]
    fn restored_pipeline_continues_bit_identically() {
        let (trace, period) = quiet_day_trace();
        let delivered: Vec<_> = trace.delivered().collect();
        let split = delivered.len() / 2;

        // Baseline: one pipeline over the whole stream.
        let mut baseline = Pipeline::new(PipelineConfig::default(), period);
        let mut base_outcomes = Vec::new();
        for (time, sensor, reading) in &delivered {
            base_outcomes.extend(baseline.push_reading(*time, *sensor, reading));
        }
        base_outcomes.extend(baseline.finalize());

        // Snapshot mid-stream (after bootstrap has installed states),
        // round-trip through the durable text codec, restore, continue.
        let mut first = Pipeline::new(PipelineConfig::default(), period);
        let mut outcomes = Vec::new();
        for (time, sensor, reading) in &delivered[..split] {
            outcomes.extend(first.push_reading(*time, *sensor, reading));
        }
        let snap = first.snapshot();
        assert!(snap.global.states.is_some(), "bootstrap happened pre-split");
        let decoded =
            crate::checkpoint::decode_pipeline(&crate::checkpoint::encode_pipeline(&snap))
                .expect("codec round trip");
        assert_eq!(decoded, snap);
        let mut resumed =
            Pipeline::from_snapshot(PipelineConfig::default(), period, decoded).expect("restore");
        for (time, sensor, reading) in &delivered[split..] {
            outcomes.extend(resumed.push_reading(*time, *sensor, reading));
        }
        outcomes.extend(resumed.finalize());

        assert_eq!(outcomes, base_outcomes);
        assert_eq!(
            crate::checkpoint::encode_pipeline(&resumed.snapshot()),
            crate::checkpoint::encode_pipeline(&baseline.snapshot()),
            "restored pipeline's final state is byte-equal to the uninterrupted run"
        );
    }

    #[test]
    fn clean_trace_has_low_false_filtered_alarms() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        let outcomes = p.process_trace(&trace);
        let filtered: usize = outcomes.iter().map(|o| o.filtered_alarms.len()).sum();
        assert_eq!(filtered, 0, "clean data should raise no filtered alarms");
        for id in p.sensor_ids() {
            assert_eq!(p.classify(id), Diagnosis::ErrorFree);
        }
    }

    #[test]
    fn observable_equals_correct_on_clean_data() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        let outcomes = p.process_trace(&trace);
        // During a transition hour the overall-mean state can differ
        // from the majority state by one neighbor, so require agreement
        // in the large majority of windows rather than all of them.
        let mismatches = outcomes
            .iter()
            .filter(|o| o.observable != o.correct)
            .count();
        assert!(
            mismatches * 5 <= outcomes.len(),
            "{mismatches}/{} windows disagreed",
            outcomes.len()
        );
    }

    #[test]
    fn correct_model_is_available() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        p.process_trace(&trace);
        let mc = p.correct_model().unwrap();
        assert!(mc.num_states() >= 4);
        mc.transition().check(1e-6).unwrap();
    }

    #[test]
    fn raw_history_recorded_per_sensor() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        let outcomes = p.process_trace(&trace);
        let h = p.raw_alarm_history(SensorId(0)).unwrap();
        assert_eq!(h.len(), outcomes.len());
    }

    #[test]
    fn unknown_sensor_queries_are_none_or_default() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        p.process_trace(&trace);
        let ghost = SensorId(99);
        assert!(p.m_ce(ghost).is_none());
        assert!(p.raw_alarm_history(ghost).is_none());
        assert!(!p.ever_alarmed(ghost));
        assert_eq!(p.classify(ghost), Diagnosis::ErrorFree);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let mut p = Pipeline::new(PipelineConfig::default(), 300);
        let outcomes = p.process_trace(&Trace::new());
        assert!(outcomes.is_empty());
        assert!(p.model_states().is_none());
        assert!(p.correct_model().is_none());
        assert!(p.network_attack().is_none());
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn zero_sample_period_panics() {
        Pipeline::new(PipelineConfig::default(), 0);
    }

    #[test]
    fn state_history_covers_decisive_windows() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        let outcomes = p.process_trace(&trace);
        assert!(!p.state_history().is_empty());
        assert!(p.state_history().len() <= outcomes.len());
        for &(w, c, o) in p.state_history() {
            assert!(w < p.windows_processed());
            let slots = p.model_states().unwrap().num_slots();
            assert!(c < slots && o < slots);
        }
    }

    #[test]
    fn viterbi_smoothing_agrees_with_majority_on_clean_data() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        p.process_trace(&trace);
        let smoothed = p.smoothed_correct_states().expect("model available");
        let majority: Vec<usize> = p.state_history().iter().map(|&(_, c, _)| c).collect();
        assert_eq!(smoothed.len(), majority.len());
        let agree = smoothed
            .iter()
            .zip(&majority)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree * 10 >= majority.len() * 8,
            "smoothing agreement {agree}/{}",
            majority.len()
        );
    }

    #[test]
    fn smoothing_without_data_is_none() {
        let p = Pipeline::new(PipelineConfig::default(), 300);
        assert!(p.smoothed_correct_states().is_none());
        assert!(p.state_history().is_empty());
    }

    #[test]
    fn classification_memo_matches_fresh_computation() {
        let (trace, period) = quiet_day_trace();
        let mut p = Pipeline::new(PipelineConfig::default(), period);
        p.process_trace(&trace);
        for id in p.sensor_ids() {
            let first = p.classify_with_confidence(id);
            // Second call must hit the memo and agree exactly.
            let second = p.classify_with_confidence(id);
            assert_eq!(first.0, second.0);
            assert_eq!(first.1.to_bits(), second.1.to_bits());
        }
        assert_eq!(p.network_attack(), p.network_attack());
    }

    /// In-process stages that keep `abstainers` out of the label
    /// stage, the way a quarantined shard keeps its sensors out.
    struct Abstaining {
        sensors: SensorMap,
        abstainers: Vec<SensorId>,
    }

    impl SensorStages for Abstaining {
        type Error = Infallible;

        fn label(
            &mut self,
            states: &ModelStates,
            ids: &[SensorId],
            representatives: &[f64],
            votes: &mut [Option<usize>],
        ) -> Result<(), Infallible> {
            self.sensors.label(states, ids, representatives, votes)?;
            for (id, vote) in ids.iter().zip(votes) {
                if self.abstainers.contains(id) {
                    *vote = None;
                }
            }
            Ok(())
        }

        fn step(
            &mut self,
            num_slots: usize,
            voted: impl Iterator<Item = (SensorId, usize)>,
            outcome: &mut WindowOutcome,
        ) -> Result<(), Infallible> {
            self.sensors.step(num_slots, voted, outcome)
        }

        fn grow(&mut self, num_slots: usize) -> Result<(), Infallible> {
            self.sensors.grow(num_slots)
        }
    }

    #[test]
    fn abstainers_sit_out_the_vote_but_still_train_the_states() {
        // Sensors 0 and 1 sit on state 0; 2, 3 and 4 near state 1, off
        // its centroid so that their readings move it.
        let config = PipelineConfig {
            window_samples: 2,
            initial_states: Some(vec![vec![0.0], vec![10.0]]),
            majority_fraction: 0.5,
            observable_trim: 0.0,
            ..PipelineConfig::default()
        };
        let mut trace = Trace::new();
        for time in 0..2 {
            for (sensor, value) in [0.0, 0.0, 9.0, 9.0, 13.0].into_iter().enumerate() {
                trace.push(sentinet_sim::TraceRecord {
                    time,
                    sensor: SensorId(sensor as u16),
                    payload: sentinet_sim::Payload::Delivered(Reading::new(vec![value])),
                });
            }
        }

        // Everybody votes: state 1 wins three to two.
        let mut everybody = Pipeline::new(config.clone(), 1);
        let all = everybody.process_trace(&trace);
        assert_eq!((all.len(), all[0].correct), (1, 1));
        assert_eq!(all[0].raw_alarms, [SensorId(0), SensorId(1)]);

        // Sensors 3 and 4 abstain: state 0 wins two to one among the
        // voters, and only the voters are stepped against it.
        let mut coordinator = Coordinator::new(config.clone(), 1);
        let mut stages = Abstaining {
            sensors: SensorMap::new(config),
            abstainers: vec![SensorId(3), SensorId(4)],
        };
        let Ok(outcomes) = coordinator.process_trace(&mut stages, &trace);
        assert_eq!((outcomes.len(), outcomes[0].correct), (1, 0));
        assert_eq!(outcomes[0].raw_alarms, [SensorId(2)]);
        let voted: Vec<(SensorId, usize)> = coordinator.scratch.voted().collect();
        assert_eq!(
            voted,
            [(SensorId(0), 0), (SensorId(1), 0), (SensorId(2), 1)]
        );
        let stepped: Vec<SensorId> = stages.sensors.runtimes.keys().copied().collect();
        assert_eq!(stepped, [SensorId(0), SensorId(1), SensorId(2)]);

        // The clustering round still saw all five representatives,
        // the abstainers' under the coordinator's own label: the model
        // states moved exactly as they did when everybody voted.
        assert_eq!(coordinator.scratch.labels(), [0, 0, 1, 1, 1]);
        assert_eq!(coordinator.scratch.representatives().len(), 5);
        assert_eq!(coordinator.global().states(), everybody.model_states());
        let moved = everybody.model_states().unwrap().centroid(1).unwrap()[0];
        assert!(moved > 10.0, "state 1 trained on 9, 9 and 13: {moved}");
    }

    #[test]
    fn recycled_outcomes_do_not_leak_old_alarms() {
        let (trace, period) = quiet_day_trace();
        let mut baseline = Pipeline::new(PipelineConfig::default(), period);
        let expected = baseline.process_trace(&trace);

        let mut pooled = Pipeline::new(PipelineConfig::default(), period);
        pooled.recycle_outcome(WindowOutcome {
            raw_alarms: vec![SensorId(7); 4],
            filtered_alarms: vec![SensorId(9); 4],
            ..WindowOutcome::default()
        });
        let mut got = Vec::new();
        for (time, sensor, reading) in trace.delivered() {
            for outcome in pooled.push_reading(time, sensor, reading) {
                got.push(outcome.clone());
                pooled.recycle_outcome(outcome);
            }
        }
        for outcome in pooled.finalize() {
            got.push(outcome);
        }
        assert_eq!(got, expected);
    }
}
