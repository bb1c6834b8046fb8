//! Great-Duck-Island-calibrated environment and sensor-network trace
//! simulator for the `sentinet` error/attack detector.
//!
//! The original paper evaluates on one month of real mote data from the
//! Great Duck Island deployment, which is not publicly archived. This
//! crate provides the faithful synthetic substitute described in
//! `DESIGN.md`: a diurnal temperature/humidity process `Θ(t)` sampled by
//! `K` noisy sensors over a lossy network, producing a collector-side
//! [`Trace`] with delivered, lost, and malformed packets.
//!
//! # Examples
//!
//! Simulate the paper's one-day workload:
//!
//! ```
//! use rand::SeedableRng;
//! use sentinet_sim::{gdi, simulate};
//!
//! let config = gdi::day_config(); // or month_config()
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let trace = simulate(&config, &mut rng);
//! assert_eq!(trace.sensors().len(), 10);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
mod environment;
pub mod gdi;
mod network;
pub mod sanitize;
mod stats;
mod types;

pub use csv::{read_trace, read_trace_sanitized, write_trace, CsvError};
pub use environment::{DiurnalParams, EnvironmentModel, DAY_S};
pub use network::{ground_truth, simulate, AttributeRange, BurstLoss, SimConfig};
pub use sanitize::{
    sanitize_records, IngestError, IngestReport, RawRecord, Sanitizer, SanitizerSnapshot,
};
pub use stats::{clamp, Gaussian};
pub use types::{Payload, Reading, SensorId, Timestamp, Trace, TraceRecord};
