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
//! module spawns new model states. The **A** update runs only in an
//! estimator built with a chain: `M_CO`'s **A** is the paper's `M_C`,
//! while the classification (Fig. 5) reads `M_CE`'s **B** alone, so
//! `M_CE` is built without one.

use crate::error::{HmmError, Result};
use crate::markov::{learning_factor, MarkovChain, MarkovState, OnlineMarkovEstimator};
use crate::matrix::StochasticMatrix;

/// Online estimator for an HMM driven by (hidden state, symbol) pairs:
/// the observation matrix **B** with its visits, and — when built with
/// one — the Markov half over the hidden states (**A**). `M_CO` has
/// the chain (its **A** is the paper's `M_C`); `M_CE`, whose **A** the
/// classification never reads, does not.
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
    /// **A**, β and the previous hidden state, for an estimator built
    /// with a chain.
    chain: Option<OnlineMarkovEstimator>,
    b: StochasticMatrix,
    gamma: f64,
    /// Visits per hidden state: the update counts of **B**'s rows,
    /// since every step updates the row of the state it visits.
    visits: Vec<u64>,
    /// Bumped on every update that can change `A`/`B`; see
    /// [`OnlineHmmEstimator::generation`].
    generation: u64,
}

impl OnlineHmmEstimator {
    /// Creates an estimator with a chain over `num_states` hidden
    /// states and `num_symbols` observation symbols with learning
    /// factors `beta` (transitions) and `gamma` (observations).
    ///
    /// `A` is initialized to the identity; `B` to a rectangular identity
    /// (`num_symbols` may exceed `num_states`).
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptyModel`] if either dimension is zero.
    /// - [`HmmError::InvalidParameter`] if `beta` or `gamma` is outside
    ///   the open interval `(0, 1)`.
    pub fn new(num_states: usize, num_symbols: usize, beta: f64, gamma: f64) -> Result<Self> {
        let b = StochasticMatrix::diagonal_like(num_states, num_symbols)?;
        let chain = Some(OnlineMarkovEstimator::new(num_states, beta)?);
        Ok(Self {
            chain,
            ..Self::without_chain(b, gamma)?
        })
    }

    /// Creates an estimator of **B** alone, without a chain, from an
    /// explicit initial **B** (one row per hidden state) — the
    /// pipeline's `M_CE`, which keeps its ⊥ symbol in column 0, so
    /// hidden state `i`'s identity prior lives in column `i + 1`.
    ///
    /// # Errors
    ///
    /// [`HmmError::InvalidParameter`] for an out-of-range `gamma`.
    pub fn without_chain(b: StochasticMatrix, gamma: f64) -> Result<Self> {
        Ok(Self {
            chain: None,
            gamma: learning_factor("gamma", gamma)?,
            visits: vec![0; b.num_rows()],
            b,
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
        self.b.num_rows()
    }

    /// Number of observation symbols currently tracked.
    pub fn num_symbols(&self) -> usize {
        self.b.num_cols()
    }

    /// Number of times row `i` of `B` received an update (the visits to
    /// hidden state `i`). Rows with a zero count still hold their
    /// identity prior and carry no evidence.
    pub fn observation_evidence(&self) -> &[u64] {
        &self.visits
    }

    /// Feeds one time step: the estimated hidden state and the observed
    /// symbol for the current window.
    ///
    /// # Errors
    ///
    /// - [`HmmError::StateOutOfRange`] / [`HmmError::SymbolOutOfRange`]
    ///   for indices beyond the current dimensions.
    pub fn observe(&mut self, state: usize, symbol: usize) -> Result<()> {
        if symbol >= self.num_symbols() {
            return Err(HmmError::SymbolOutOfRange {
                symbol,
                num_symbols: self.num_symbols(),
            });
        }
        if state >= self.num_states() {
            return Err(HmmError::StateOutOfRange {
                state,
                num_states: self.num_states(),
            });
        }
        if let Some(chain) = &mut self.chain {
            chain.observe(state)?;
        }
        self.b.reinforce(state, symbol, self.gamma)?;
        self.visits[state] += 1;
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
        if add_s > 0 || add_y > 0 {
            if let Some(chain) = &mut self.chain {
                chain.grow(num_states);
            }
            self.b.grow(add_s, add_y);
            self.visits.resize(self.b.num_rows(), 0);
            self.generation += 1;
        }
    }

    /// The current transition matrix estimate **A**; `None` without a
    /// chain.
    pub fn transition(&self) -> Option<&StochasticMatrix> {
        self.chain.as_ref().map(|chain| &chain.transition)
    }

    /// The hidden chain — **A** with the visits' occupancy — as a
    /// [`MarkovChain`]; `None` without a chain. `M_CO`'s is the paper's
    /// `M_C` (Fig. 7).
    pub fn markov_chain(&self) -> Option<MarkovChain> {
        let a = self.transition()?.clone();
        // sentinet-allow(expect-used): A is square over the hidden states and the occupancy is a distribution of the same length
        Some(MarkovChain::new(a, self.occupancy()).expect("a valid chain"))
    }

    /// The current observation matrix estimate **B**.
    pub fn observation(&self) -> &StochasticMatrix {
        &self.b
    }

    /// Empirical initial/occupancy distribution over hidden states
    /// (uniform if nothing has been observed yet).
    pub fn occupancy(&self) -> Vec<f64> {
        let total: u64 = self.visits.iter().sum();
        if total == 0 {
            vec![1.0 / self.num_states() as f64; self.num_states()]
        } else {
            self.visits
                .iter()
                .map(|&v| v as f64 / total as f64)
                .collect()
        }
    }

    /// Captures the complete estimator state as plain data for
    /// checkpointing. [`OnlineHmmEstimator::import_state`] rebuilds an
    /// estimator that is `==` to this one (all floats verbatim, the
    /// generation counter included, so memo caches keyed on
    /// [`OnlineHmmEstimator::generation`] stay coherent across a
    /// restore).
    pub fn export_state(&self) -> EstimatorState {
        EstimatorState {
            chain: self.chain.as_ref().map(|a| MarkovState {
                transition: a.transition.iter_rows().map(<[f64]>::to_vec).collect(),
                beta: a.beta,
                prev: a.prev,
            }),
            b: self.b.iter_rows().map(<[f64]>::to_vec).collect(),
            gamma: self.gamma,
            visits: self.visits.clone(),
            generation: self.generation,
        }
    }

    /// Rebuilds an estimator from an exported state, re-validating the
    /// matrix invariants (a corrupt checkpoint must fail loudly, not
    /// poison the estimates).
    ///
    /// # Errors
    ///
    /// - Matrix construction errors if a matrix's rows are not
    ///   stochastic or are ragged.
    /// - [`HmmError::DimensionMismatch`] if the visits or **A** cover
    ///   another state count than `b`'s rows.
    /// - [`HmmError::StateOutOfRange`] if the previous state is out of
    ///   range.
    /// - [`HmmError::InvalidParameter`] for an out-of-range β or γ.
    pub fn import_state(state: EstimatorState) -> Result<Self> {
        let b = StochasticMatrix::from_rows(state.b)?;
        let n = b.num_rows();
        let chain = match state.chain {
            Some(a) => Some(OnlineMarkovEstimator {
                transition: StochasticMatrix::from_rows(a.transition)?,
                beta: learning_factor("beta", a.beta)?,
                prev: a.prev,
            }),
            None => None,
        };
        let a = chain.as_ref().map(|a| &a.transition);
        for (what, actual) in [
            ("visit counts", state.visits.len()),
            ("A rows", a.map_or(n, StochasticMatrix::num_rows)),
            ("A columns", a.map_or(n, StochasticMatrix::num_cols)),
        ] {
            if actual != n {
                return Err(HmmError::DimensionMismatch {
                    what: what.into(),
                    expected: n,
                    actual,
                });
            }
        }
        if let Some(state) = chain.as_ref().and_then(|a| a.prev).filter(|&p| p >= n) {
            return Err(HmmError::StateOutOfRange {
                state,
                num_states: n,
            });
        }
        Ok(Self {
            chain,
            visits: state.visits,
            generation: state.generation,
            ..Self::without_chain(b, state.gamma)?
        })
    }
}

/// Plain-data image of an [`OnlineHmmEstimator`], produced by
/// [`OnlineHmmEstimator::export_state`] for checkpoint/restore. Matrix
/// rows are stored verbatim (row-major `Vec<Vec<f64>>`), so a
/// round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorState {
    /// The Markov half — transition rows, β and the previous hidden
    /// state — of an estimator built with a chain.
    pub chain: Option<MarkovState>,
    /// Rows of the observation matrix **B** (one per hidden state).
    pub b: Vec<Vec<f64>>,
    /// Observation learning factor γ.
    pub gamma: f64,
    /// Visits per hidden state (**B**'s row update counts).
    pub visits: Vec<u64>,
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
        assert_eq!(est.transition().unwrap()[(1, 1)], 1.0);
        assert_eq!(est.observation()[(2, 2)], 1.0);
        assert_eq!(est.observation()[(2, 3)], 0.0);
    }

    #[test]
    fn transition_update_only_on_state_change() {
        let mut est = OnlineHmmEstimator::new(2, 2, 0.5, 0.5).unwrap();
        est.observe(0, 0).unwrap();
        est.observe(0, 0).unwrap(); // no state change: A untouched
        assert_eq!(est.transition().unwrap()[(0, 0)], 1.0);
        est.observe(1, 1).unwrap(); // change 0 → 1
        let a = est.transition().unwrap();
        assert!((a[(0, 1)] - 0.5).abs() < 1e-12);
        assert!((a[(0, 0)] - 0.5).abs() < 1e-12);
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
        est.transition().unwrap().check(1e-6).unwrap();
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
        est.transition().unwrap().check(1e-9).unwrap();
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
        assert_eq!(est.observation_evidence(), &[2, 1]);
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

    /// Without a chain, **B**, the visits and the generation move
    /// exactly as a chained estimator's do; there is no **A** to read.
    #[test]
    fn an_estimator_without_a_chain_is_the_chained_one_minus_a() {
        let mut chained = OnlineHmmEstimator::new(3, 4, 0.9, 0.7).unwrap();
        let b = chained.observation().clone();
        let mut plain = OnlineHmmEstimator::without_chain(b, 0.7).unwrap();
        for t in 0..23usize {
            chained.observe(t % 3, (t * 5) % 4).unwrap();
            plain.observe(t % 3, (t * 5) % 4).unwrap();
        }
        chained.grow(4, 5);
        plain.grow(4, 5);
        let mut want = chained.export_state();
        want.chain = None;
        assert_eq!(plain.export_state(), want);
        assert_eq!(plain.transition(), None);
        assert_eq!(plain.markov_chain(), None);
        let restored = OnlineHmmEstimator::import_state(plain.export_state()).unwrap();
        assert_eq!(restored, plain);
    }

    #[test]
    fn import_rejects_corrupt_checkpoints() {
        let est = OnlineHmmEstimator::new(2, 2, 0.9, 0.9).unwrap();
        let mut bad = est.export_state();
        bad.chain.as_mut().unwrap().transition[0][0] = 0.7; // row no longer sums to 1
        assert!(OnlineHmmEstimator::import_state(bad).is_err());

        let mut bad = est.export_state();
        bad.visits.push(0);
        assert!(matches!(
            OnlineHmmEstimator::import_state(bad),
            Err(HmmError::DimensionMismatch { .. })
        ));

        let mut bad = est.export_state();
        bad.chain.as_mut().unwrap().prev = Some(9);
        assert!(matches!(
            OnlineHmmEstimator::import_state(bad),
            Err(HmmError::StateOutOfRange { .. })
        ));

        let mut bad = est.export_state();
        bad.chain.as_mut().unwrap().beta = 1.5;
        assert!(matches!(
            OnlineHmmEstimator::import_state(bad),
            Err(HmmError::InvalidParameter { name: "beta", .. })
        ));

        let mut bad = est.export_state();
        let a = &mut bad.chain.as_mut().unwrap().transition;
        a.iter_mut().for_each(|row| row.push(0.0)); // no longer square
        assert!(matches!(
            OnlineHmmEstimator::import_state(bad),
            Err(HmmError::DimensionMismatch { .. })
        ));
    }
}
