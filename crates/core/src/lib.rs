//! `sentinet-core` — on-the-fly detection, diagnosis, and classification
//! of **errors versus attacks** in distributed sensor networks.
//!
//! This crate is a from-scratch implementation of
//!
//! > *An Approach for Detecting and Distinguishing Errors versus Attacks
//! > in Sensor Networks* — C. Basile, M. Gupta, Z. Kalbarczyk,
//! > R. K. Iyer, DSN 2006.
//!
//! A collector node runs a [`Pipeline`] over the stream of redundant
//! sensor readings. Each observation window it estimates the *correct*
//! environment state from the majority cluster of sensors (no
//! attack-free training phase needed), learns two Hidden Markov Models
//! online —
//!
//! - `M_CO`: hidden/correct environment states → observable states, and
//! - `M_CE`: hidden/correct states → each suspect sensor's error states
//!
//! — and classifies malfunctions by *structural analysis* of these
//! models: non-orthogonal rows/columns of `B^CO` reveal dynamic
//! deletion/creation attacks, a single dominant column of `B^CE`
//! reveals a stuck-at error, one-to-one associations with constant
//! ratio/difference reveal calibration/additive errors (see
//! [`classify`]).
//!
//! # Examples
//!
//! Detect and classify a stuck-at fault:
//!
//! ```
//! use rand::SeedableRng;
//! use sentinet_core::{Diagnosis, ErrorType, Pipeline, PipelineConfig};
//! use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
//! use sentinet_sim::{gdi, simulate, SensorId};
//!
//! let mut sim_cfg = gdi::day_config();
//! sim_cfg.duration = 6 * 3600; // keep the doctest fast
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let clean = simulate(&sim_cfg, &mut rng);
//! let faulty = inject_faults(
//!     &clean,
//!     &[FaultInjection::from_onset(
//!         SensorId(6),
//!         FaultModel::StuckAt { value: vec![15.0, 1.0] },
//!         0,
//!     )],
//!     &sim_cfg.ranges,
//!     &mut rng,
//! );
//! let mut pipeline = Pipeline::new(PipelineConfig::default(), sim_cfg.sample_period);
//! pipeline.process_trace(&faulty);
//! assert!(pipeline.ever_alarmed(SensorId(6)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod classify;
mod config;
mod pipeline;
pub mod recovery;
pub mod report;
pub mod runtime;
pub mod window;

pub use checkpoint::{
    decode_pipeline, encode_pipeline, CheckpointError, GlobalSnapshot, GlobalStates, MceSnapshot,
    PipelineSnapshot, SensorSnapshot, WindowerSnapshot,
};
pub use classify::{AttackType, Diagnosis, ErrorType};
pub use config::{FilterPolicy, PipelineConfig};
pub use pipeline::{Pipeline, TrackRecord, WindowOutcome, BOT_SYMBOL};
pub use recovery::{RecoveryAction, RecoveryPlan};
pub use report::{PipelineReport, SensorSummary, StateSummary, KEY_STATE_OCCUPANCY};
pub use runtime::{AlarmRun, GlobalModel, IdentityPrior, SensorRuntime, SensorStep};
pub use window::{
    identify_states, identify_states_into, ObservationWindow, Observed, SensorSamples,
    WindowScratch, WindowStates, Windower,
};
