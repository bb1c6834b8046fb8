//! Statistical clustering for the `sentinet` sensor-network
//! error/attack detector.
//!
//! Two pieces, matching the paper's §3.1 and §4.1:
//!
//! - [`ModelStates`] — the on-line Model State Identification module:
//!   EWMA centroid tracking with learning factor `α` (Eq. 6), state
//!   merging below a distance threshold, and state spawning beyond one,
//!   with **stable slot indices** so downstream HMM estimators never see
//!   their state indices reshuffled.
//! - [`kmeans`] — the off-line clustering used to produce the initial
//!   6-state estimate from historical data (Table 1).
//!
//! # Examples
//!
//! ```
//! use sentinet_cluster::{kmeans, ClusterConfig, ModelStates};
//! use rand::SeedableRng;
//!
//! let history = vec![vec![12.0, 94.0], vec![12.4, 93.0], vec![31.0, 56.0], vec![30.4, 57.0]];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let init = kmeans(&history, 2, 50, &mut rng).centroids;
//! let mut states = ModelStates::new(init, ClusterConfig::default());
//! states.update(&[vec![12.1, 93.8]]);
//! assert_eq!(states.active_states().len(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod kmeans;
mod online;

pub use kmeans::{kmeans, KMeansResult};
pub use online::{ClusterConfig, ModelStates, StateEvent, StatesSnapshot, UpdateScratch};
