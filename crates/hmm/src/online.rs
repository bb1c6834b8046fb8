//! The paper's on-line HMM estimator (§3.2).
//!
//! At the end of each observation window the collector node knows an
//! estimate of the current hidden state (the *correct* environment state
//! `c_i`) and the current observation symbol (either the observable
//! state `o_i` for `M_CO` or the error/attack state `e_i` for `M_CE`).
//! The estimator then performs exponential updates with learning factors
//! `β` (transitions) and `γ` (observations):
//!
//! - if the hidden state changed from `i` to `j`:
//!   `a_ik ← (1 − β)·a_ik + β·δ_kj` for all `k`;
//! - `b_jk ← (1 − γ)·b_jk + γ·δ_kl` for all `k`, where `l` is the
//!   current symbol and `j` the current hidden state.
//!
//! Both updates are convex combinations within the probability simplex,
//! so **A** and **B** remain stochastic — the property the paper points
//! out ("it is easy to show that if A and B are probability
//! distributions, then they remain so").
//!
//! Matrices are initialized to (rectangular) identities as the paper
//! recommends, and the estimator can *grow* when the online clustering
//! module spawns new model states.

use crate::error::{HmmError, Result};
use crate::hmm::Hmm;
use crate::matrix::StochasticMatrix;

/// Online estimator for an HMM driven by (hidden state, symbol) pairs.
///
/// # Examples
///
/// ```
/// use sentinet_hmm::OnlineHmmEstimator;
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let mut est = OnlineHmmEstimator::new(3, 3, 0.9, 0.9)?;
/// // Environment moves 0 → 1 and emits its own state each time.
/// est.observe(0, 0)?;
/// est.observe(1, 1)?;
/// est.observe(1, 1)?;
/// let b = est.observation();
/// assert!(b[(1, 1)] > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineHmmEstimator {
    a: StochasticMatrix,
    b: StochasticMatrix,
    beta: f64,
    gamma: f64,
    prev_state: Option<usize>,
    /// Visit counts per hidden state, used for the empirical initial
    /// distribution and for pruning rarely visited states downstream.
    state_counts: Vec<u64>,
    /// Emission counts per (state), used to know which rows of `B` have
    /// actually been updated (identity rows are priors, not evidence).
    obs_counts: Vec<u64>,
    steps: u64,
    /// Bumped on every update that can change `A`/`B`; see
    /// [`OnlineHmmEstimator::generation`].
    generation: u64,
}

impl OnlineHmmEstimator {
    /// Creates an estimator over `num_states` hidden states and
    /// `num_symbols` observation symbols with learning factors
    /// `beta` (transitions) and `gamma` (observations).
    ///
    /// `A` is initialized to the identity; `B` to a rectangular identity
    /// (`num_symbols` may exceed `num_states`, e.g. to host the ⊥ column
    /// of an error track).
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptyModel`] if either dimension is zero.
    /// - [`HmmError::InvalidParameter`] if `beta` or `gamma` is outside
    ///   the open interval `(0, 1)`.
    pub fn new(num_states: usize, num_symbols: usize, beta: f64, gamma: f64) -> Result<Self> {
        if !(beta > 0.0 && beta < 1.0) {
            return Err(HmmError::InvalidParameter {
                name: "beta",
                value: beta,
                range: "(0, 1)",
            });
        }
        if !(gamma > 0.0 && gamma < 1.0) {
            return Err(HmmError::InvalidParameter {
                name: "gamma",
                value: gamma,
                range: "(0, 1)",
            });
        }
        Ok(Self {
            a: StochasticMatrix::identity(num_states)?,
            b: StochasticMatrix::diagonal_like(num_states, num_symbols)?,
            beta,
            gamma,
            prev_state: None,
            state_counts: vec![0; num_states],
            obs_counts: vec![0; num_states],
            steps: 0,
            generation: 0,
        })
    }

    /// Creates an estimator from explicit initial matrices, e.g. when
    /// the observation symbols are offset from the hidden states (the
    /// pipeline's `M_CE` keeps its ⊥ symbol in column 0, so hidden
    /// state `i`'s identity prior lives in column `i + 1`).
    ///
    /// # Errors
    ///
    /// - [`HmmError::DimensionMismatch`] if `a` is not square or `b`'s
    ///   rows disagree with `a`.
    /// - [`HmmError::InvalidParameter`] for out-of-range learning
    ///   factors.
    pub fn with_initial(
        a: StochasticMatrix,
        b: StochasticMatrix,
        beta: f64,
        gamma: f64,
    ) -> Result<Self> {
        if !(beta > 0.0 && beta < 1.0) {
            return Err(HmmError::InvalidParameter {
                name: "beta",
                value: beta,
                range: "(0, 1)",
            });
        }
        if !(gamma > 0.0 && gamma < 1.0) {
            return Err(HmmError::InvalidParameter {
                name: "gamma",
                value: gamma,
                range: "(0, 1)",
            });
        }
        let m = a.num_rows();
        if a.num_cols() != m {
            return Err(HmmError::DimensionMismatch {
                what: "transition matrix columns".into(),
                expected: m,
                actual: a.num_cols(),
            });
        }
        if b.num_rows() != m {
            return Err(HmmError::DimensionMismatch {
                what: "observation matrix rows".into(),
                expected: m,
                actual: b.num_rows(),
            });
        }
        Ok(Self {
            state_counts: vec![0; m],
            obs_counts: vec![0; m],
            a,
            b,
            beta,
            gamma,
            prev_state: None,
            steps: 0,
            generation: 0,
        })
    }

    /// Update generation: incremented by every [`observe`] and by every
    /// [`grow`] that actually changes a dimension. Results derived from
    /// `A`/`B` (Gram matrices, structural tests) stay valid while the
    /// generation is unchanged, so it serves as a cheap cache key.
    ///
    /// [`observe`]: OnlineHmmEstimator::observe
    /// [`grow`]: OnlineHmmEstimator::grow
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of hidden states currently tracked.
    pub fn num_states(&self) -> usize {
        self.a.num_rows()
    }

    /// Number of observation symbols currently tracked.
    pub fn num_symbols(&self) -> usize {
        self.b.num_cols()
    }

    /// Total number of `observe` calls so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Visit counts per hidden state.
    pub fn state_counts(&self) -> &[u64] {
        &self.state_counts
    }

    /// Number of times row `i` of `B` received an update. Rows with a
    /// zero count still hold their identity prior and carry no evidence.
    pub fn observation_evidence(&self) -> &[u64] {
        &self.obs_counts
    }

    /// Feeds one time step: the estimated hidden state and the observed
    /// symbol for the current window.
    ///
    /// # Errors
    ///
    /// - [`HmmError::StateOutOfRange`] / [`HmmError::SymbolOutOfRange`]
    ///   for indices beyond the current dimensions.
    pub fn observe(&mut self, state: usize, symbol: usize) -> Result<()> {
        if state >= self.num_states() {
            return Err(HmmError::StateOutOfRange {
                state,
                num_states: self.num_states(),
            });
        }
        if symbol >= self.num_symbols() {
            return Err(HmmError::SymbolOutOfRange {
                symbol,
                num_symbols: self.num_symbols(),
            });
        }
        if let Some(prev) = self.prev_state {
            if prev != state {
                self.a.reinforce(prev, state, self.beta)?;
            }
        }
        self.b.reinforce(state, symbol, self.gamma)?;
        self.state_counts[state] += 1;
        self.obs_counts[state] += 1;
        self.prev_state = Some(state);
        self.steps += 1;
        self.generation += 1;
        Ok(())
    }

    /// Grows the estimator to `num_states`/`num_symbols` (monotone; a
    /// smaller request is a no-op in that dimension). New transition
    /// rows/columns start as identity; new observation rows emit the
    /// matching new symbol if one was added, otherwise uniformly.
    pub fn grow(&mut self, num_states: usize, num_symbols: usize) {
        let add_s = num_states.saturating_sub(self.num_states());
        let add_y = num_symbols.saturating_sub(self.num_symbols());
        if add_s > 0 {
            self.a.grow(add_s, add_s);
            self.state_counts.extend(std::iter::repeat_n(0, add_s));
            self.obs_counts.extend(std::iter::repeat_n(0, add_s));
        }
        if add_s > 0 || add_y > 0 {
            self.b.grow(add_s, add_y);
            self.generation += 1;
        }
    }

    /// The current transition matrix estimate **A**.
    pub fn transition(&self) -> &StochasticMatrix {
        &self.a
    }

    /// The current observation matrix estimate **B**.
    pub fn observation(&self) -> &StochasticMatrix {
        &self.b
    }

    /// Empirical initial/occupancy distribution over hidden states
    /// (uniform if nothing has been observed yet).
    pub fn occupancy(&self) -> Vec<f64> {
        let total: u64 = self.state_counts.iter().sum();
        if total == 0 {
            vec![1.0 / self.num_states() as f64; self.num_states()]
        } else {
            self.state_counts
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect()
        }
    }

    /// Builds a full [`Hmm`] snapshot from the current estimates, using
    /// the empirical occupancy as the initial distribution.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`Hmm::new`]; cannot occur for
    /// an estimator that has enforced its invariants.
    pub fn to_hmm(&self) -> Result<Hmm> {
        Hmm::new(self.a.clone(), self.b.clone(), self.occupancy())
    }

    /// Captures the complete estimator state as plain data for
    /// checkpointing. [`OnlineHmmEstimator::import_state`] rebuilds an
    /// estimator that is `==` to this one (all floats verbatim, the
    /// generation counter included, so memo caches keyed on
    /// [`OnlineHmmEstimator::generation`] stay coherent across a
    /// restore).
    pub fn export_state(&self) -> EstimatorState {
        EstimatorState {
            a: self.a.iter_rows().map(<[f64]>::to_vec).collect(),
            b: self.b.iter_rows().map(<[f64]>::to_vec).collect(),
            beta: self.beta,
            gamma: self.gamma,
            prev_state: self.prev_state,
            state_counts: self.state_counts.clone(),
            obs_counts: self.obs_counts.clone(),
            steps: self.steps,
            generation: self.generation,
        }
    }

    /// Rebuilds an estimator from an exported state, re-validating the
    /// matrix invariants (a corrupt checkpoint must fail loudly, not
    /// poison the estimates).
    ///
    /// # Errors
    ///
    /// - Matrix construction errors if the rows are not stochastic or
    ///   are ragged.
    /// - [`HmmError::DimensionMismatch`] if `b`/counts disagree with
    ///   `a`'s state count, or `prev_state` is out of range.
    /// - [`HmmError::InvalidParameter`] for out-of-range learning
    ///   factors.
    pub fn import_state(state: EstimatorState) -> Result<Self> {
        let a = StochasticMatrix::from_rows(state.a)?;
        let b = StochasticMatrix::from_rows(state.b)?;
        let mut est = Self::with_initial(a, b, state.beta, state.gamma)?;
        let m = est.num_states();
        if state.state_counts.len() != m || state.obs_counts.len() != m {
            return Err(HmmError::DimensionMismatch {
                what: "checkpoint count vectors".into(),
                expected: m,
                actual: state.state_counts.len(),
            });
        }
        if let Some(prev) = state.prev_state {
            if prev >= m {
                return Err(HmmError::StateOutOfRange {
                    state: prev,
                    num_states: m,
                });
            }
        }
        est.prev_state = state.prev_state;
        est.state_counts = state.state_counts;
        est.obs_counts = state.obs_counts;
        est.steps = state.steps;
        est.generation = state.generation;
        Ok(est)
    }
}

/// Plain-data image of an [`OnlineHmmEstimator`], produced by
/// [`OnlineHmmEstimator::export_state`] for checkpoint/restore. Matrix
/// rows are stored verbatim (row-major `Vec<Vec<f64>>`), so a
/// round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorState {
    /// Rows of the transition matrix **A** (square).
    pub a: Vec<Vec<f64>>,
    /// Rows of the observation matrix **B** (`a.len()` rows).
    pub b: Vec<Vec<f64>>,
    /// Transition learning factor β.
    pub beta: f64,
    /// Observation learning factor γ.
    pub gamma: f64,
    /// Hidden state seen at the previous step, if any.
    pub prev_state: Option<usize>,
    /// Visit counts per hidden state.
    pub state_counts: Vec<u64>,
    /// Update counts per observation row.
    pub obs_counts: Vec<u64>,
    /// Total `observe` calls.
    pub steps: u64,
    /// Update-generation counter at capture time.
    pub generation: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_factors() {
        assert!(matches!(
            OnlineHmmEstimator::new(2, 2, 0.0, 0.5),
            Err(HmmError::InvalidParameter { name: "beta", .. })
        ));
        assert!(matches!(
            OnlineHmmEstimator::new(2, 2, 0.5, 1.0),
            Err(HmmError::InvalidParameter { name: "gamma", .. })
        ));
        assert!(matches!(
            OnlineHmmEstimator::new(0, 2, 0.5, 0.5),
            Err(HmmError::EmptyModel)
        ));
    }

    #[test]
    fn starts_at_identity() {
        let est = OnlineHmmEstimator::new(3, 4, 0.9, 0.9).unwrap();
        assert_eq!(est.transition()[(1, 1)], 1.0);
        assert_eq!(est.observation()[(2, 2)], 1.0);
        assert_eq!(est.observation()[(2, 3)], 0.0);
    }

    #[test]
    fn transition_update_only_on_state_change() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.5, 0.5).unwrap();
        est.observe(0, 0).unwrap();
        est.observe(0, 0).unwrap(); // no state change: A untouched
        assert_eq!(est.transition()[(0, 0)], 1.0);
        est.observe(1, 1).unwrap(); // change 0 → 1
        assert!((est.transition()[(0, 1)] - 0.5).abs() < 1e-12);
        assert!((est.transition()[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn observation_update_row_is_current_state() {
        let mut est = OnlineHmmEstimator::new(2, 3, 0.9, 0.5).unwrap();
        est.observe(1, 2).unwrap();
        assert!((est.observation()[(1, 2)] - 0.5).abs() < 1e-12);
        // Row 0 untouched.
        assert_eq!(est.observation()[(0, 0)], 1.0);
    }

    #[test]
    fn repeated_observation_converges_to_one() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        for _ in 0..20 {
            est.observe(0, 1).unwrap();
        }
        assert!(est.observation()[(0, 1)] > 0.999);
        est.observation().check(1e-9).unwrap();
    }

    #[test]
    fn matrices_stay_stochastic_under_long_streams() {
        let mut est = OnlineHmmEstimator::new(4, 5, 0.9, 0.9).unwrap();
        for t in 0..10_000usize {
            est.observe(t % 4, (t * 7) % 5).unwrap();
        }
        est.transition().check(1e-6).unwrap();
        est.observation().check(1e-6).unwrap();
    }

    #[test]
    fn grow_preserves_and_extends() {
        let mut est = OnlineHmmEstimator::new(2, 3, 0.9, 0.9).unwrap();
        est.observe(0, 0).unwrap();
        est.observe(1, 2).unwrap();
        let b01 = est.observation()[(1, 2)];
        est.grow(3, 4);
        assert_eq!(est.num_states(), 3);
        assert_eq!(est.num_symbols(), 4);
        assert_eq!(est.observation()[(1, 2)], b01);
        // New state row emits the new symbol.
        assert_eq!(est.observation()[(2, 3)], 1.0);
        est.observe(2, 3).unwrap();
        est.transition().check(1e-9).unwrap();
        est.observation().check(1e-9).unwrap();
    }

    #[test]
    fn grow_is_monotone_noop_when_smaller() {
        let mut est = OnlineHmmEstimator::new(3, 3, 0.9, 0.9).unwrap();
        est.grow(2, 2);
        assert_eq!(est.num_states(), 3);
        assert_eq!(est.num_symbols(), 3);
    }

    #[test]
    fn occupancy_tracks_visits() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        assert_eq!(est.occupancy(), vec![0.5, 0.5]);
        est.observe(0, 0).unwrap();
        est.observe(0, 0).unwrap();
        est.observe(1, 1).unwrap();
        let occ = est.occupancy();
        assert!((occ[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(est.steps(), 3);
    }

    #[test]
    fn to_hmm_is_valid_model() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        est.observe(0, 0).unwrap();
        est.observe(1, 1).unwrap();
        let hmm = est.to_hmm().unwrap();
        assert!(hmm.log_likelihood(&[0, 1]).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        assert!(matches!(
            est.observe(2, 0),
            Err(HmmError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            est.observe(0, 2),
            Err(HmmError::SymbolOutOfRange { .. })
        ));
    }

    #[test]
    fn generation_tracks_updates() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        assert_eq!(est.generation(), 0);
        est.observe(0, 0).unwrap();
        assert_eq!(est.generation(), 1);
        est.grow(2, 2); // no-op: dimensions unchanged
        assert_eq!(est.generation(), 1);
        est.grow(3, 3);
        assert_eq!(est.generation(), 2);
    }

    #[test]
    fn evidence_counts_distinguish_prior_rows() {
        let mut est = OnlineHmmEstimator::new(3, 3, 0.9, 0.9).unwrap();
        est.observe(1, 1).unwrap();
        assert_eq!(est.observation_evidence(), &[0, 1, 0]);
    }

    #[test]
    fn export_import_round_trip_is_exact() {
        let mut est = OnlineHmmEstimator::new(3, 4, 0.9, 0.7).unwrap();
        for t in 0..37usize {
            est.observe(t % 3, (t * 5) % 4).unwrap();
        }
        est.grow(4, 5);
        let restored = OnlineHmmEstimator::import_state(est.export_state()).unwrap();
        assert_eq!(restored, est);
        assert_eq!(restored.generation(), est.generation());
        // Futures must stay identical, not just the snapshot instant.
        let mut a = est;
        let mut b = restored;
        for t in 0..11usize {
            a.observe(t % 4, t % 5).unwrap();
            b.observe(t % 4, t % 5).unwrap();
        }
        assert_eq!(a, b);
    }

    #[test]
    fn import_rejects_corrupt_checkpoints() {
        let est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        let mut bad = est.export_state();
        bad.a[0][0] = 0.7; // row no longer sums to 1
        assert!(OnlineHmmEstimator::import_state(bad).is_err());

        let mut bad = est.export_state();
        bad.state_counts.push(0);
        assert!(matches!(
            OnlineHmmEstimator::import_state(bad),
            Err(HmmError::DimensionMismatch { .. })
        ));

        let mut bad = est.export_state();
        bad.prev_state = Some(9);
        assert!(matches!(
            OnlineHmmEstimator::import_state(bad),
            Err(HmmError::StateOutOfRange { .. })
        ));
    }
}
