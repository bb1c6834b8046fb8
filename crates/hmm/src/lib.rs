//! Discrete Hidden Markov Models, Markov chains, and the structural
//! analysis toolkit used by the `sentinet` sensor-network error/attack
//! detector (Basile, Gupta, Kalbarczyk, Iyer — DSN 2006).
//!
//! The crate provides four layers:
//!
//! 1. [`StochasticMatrix`] — validated row-stochastic matrices with the
//!    exponential simplex updates the paper's online estimation relies
//!    on, plus the row Gram matrix the orthogonality analysis reads.
//! 2. [`Hmm`] — the classical `λ = (A, B, π)` model with scaled
//!    forward/backward, [`Hmm::viterbi`] decoding, sampling, and batch
//!    [`baum_welch()`] training (used by the Warrender–Forrest baseline).
//! 3. [`OnlineHmmEstimator`] — the paper's §3.2 on-line procedure:
//!    cheap per-window exponential updates that sidestep the classical
//!    HMM identification problem by exploiting sensor redundancy (the
//!    hidden state is *estimated* each window). It holds **B** and its
//!    visits, plus the Markov half over the hidden states (**A**) when
//!    built with one: `M_CO` has it, so `M_C` (a [`MarkovChain`]) is
//!    `M_CO`'s transition half; `M_CE` does not.
//! 4. [`structure`] — row/column orthogonality reports, the stuck-at
//!    column test (Eq. 7) and one-to-one association extraction (Eq. 8)
//!    that drive the §3.4 error/attack classification tree.
//!
//! # Examples
//!
//! Online estimation of `M_CO` from (correct state, observable state)
//! pairs, followed by structural analysis:
//!
//! ```
//! use sentinet_hmm::{OnlineHmmEstimator, structure::{OrthogonalityReport, OrthoTolerance}};
//!
//! # fn main() -> Result<(), sentinet_hmm::HmmError> {
//! let mut m_co = OnlineHmmEstimator::new(3, 3, 0.9, 0.9)?;
//! for (c, o) in [(0, 0), (1, 1), (2, 2), (1, 1), (0, 0)] {
//!     m_co.observe(c, o)?;
//! }
//! let report = OrthogonalityReport::analyze(
//!     m_co.observation(),
//!     OrthoTolerance::default(),
//!     None,
//! );
//! assert!(report.is_orthogonal()); // no attack signature
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Indexed loops are the natural idiom for the dense matrix recurrences
// throughout this crate; iterator rewrites obscure the paper's algebra.
#![allow(clippy::needless_range_loop)]

mod error;
mod hmm;
mod matrix;

pub mod baum_welch;
pub mod markov;
pub mod online;
pub mod online_em;
pub mod structure;

pub use baum_welch::{baum_welch, BaumWelchConfig, TrainedHmm};
pub use error::{HmmError, Result};
pub use hmm::{Forward, Hmm, ViterbiPath};
pub use markov::{MarkovChain, MarkovState};
pub use matrix::{validate_distribution, StochasticMatrix, STOCHASTIC_TOL};
pub use online::{EstimatorState, OnlineHmmEstimator};
pub use online_em::OnlineEmEstimator;
