//! First-order Markov chains and their online estimation.
//!
//! The pipeline's final deliverable to the user is a Markov model `M_C`
//! of the error/attack-free environment dynamics (paper Fig. 7),
//! estimated from the sequence of correct environment states `c_i`: the
//! Markov half that `M_CO`'s
//! [`OnlineHmmEstimator`](crate::OnlineHmmEstimator) holds for its
//! **A**, read out as a [`MarkovChain`]. [`MarkovChain::from_sequences`]
//! fits the Markov-chain baseline detector of `sentinet-baselines`.

use crate::error::{HmmError, Result};
use crate::matrix::StochasticMatrix;
use std::fmt;

/// A first-order Markov chain over `M` states.
///
/// # Examples
///
/// ```
/// use sentinet_hmm::MarkovChain;
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let mc = MarkovChain::from_sequences(3, &[vec![0, 0, 1, 1, 2, 0]])?;
/// assert!(mc.transition()[(0, 0)] > 0.0);
/// let pi = mc.stationary(1e-10, 10_000);
/// assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    transition: StochasticMatrix,
    /// Empirical state occupancy (visit frequency).
    occupancy: Vec<f64>,
}

impl MarkovChain {
    /// Creates a chain from an explicit transition matrix and occupancy
    /// distribution.
    ///
    /// # Errors
    ///
    /// - [`HmmError::DimensionMismatch`] if `transition` is not square or
    ///   `occupancy` disagrees with it.
    /// - [`HmmError::NotStochastic`] if `occupancy` is not a distribution.
    pub fn new(transition: StochasticMatrix, occupancy: Vec<f64>) -> Result<Self> {
        let m = transition.num_rows();
        if transition.num_cols() != m {
            return Err(HmmError::DimensionMismatch {
                what: "markov transition columns".into(),
                expected: m,
                actual: transition.num_cols(),
            });
        }
        if occupancy.len() != m {
            return Err(HmmError::DimensionMismatch {
                what: "markov occupancy".into(),
                expected: m,
                actual: occupancy.len(),
            });
        }
        crate::matrix::validate_distribution(&occupancy, "markov occupancy", 1e-9)?;
        Ok(Self {
            transition,
            occupancy,
        })
    }

    /// Estimates a chain from state sequences by maximum likelihood with
    /// add-zero counts (rows never left become self-loops). Each
    /// sequence's transitions are counted on their own: concatenating
    /// them would fabricate one at every seam.
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptyModel`] if `num_states == 0`.
    /// - [`HmmError::EmptySequence`] if there is no sequence or one is
    ///   empty.
    /// - [`HmmError::StateOutOfRange`] if a sequence mentions a state
    ///   `>= num_states`.
    pub fn from_sequences(num_states: usize, sequences: &[Vec<usize>]) -> Result<Self> {
        if num_states == 0 {
            return Err(HmmError::EmptyModel);
        }
        if sequences.is_empty() {
            return Err(HmmError::EmptySequence);
        }
        let mut counts = vec![vec![0.0f64; num_states]; num_states];
        let mut visits = vec![0.0f64; num_states];
        for seq in sequences {
            if seq.is_empty() {
                return Err(HmmError::EmptySequence);
            }
            for &s in seq {
                if s >= num_states {
                    return Err(HmmError::StateOutOfRange {
                        state: s,
                        num_states,
                    });
                }
                visits[s] += 1.0;
            }
            for w in seq.windows(2) {
                counts[w[0]][w[1]] += 1.0;
            }
        }
        let rows: Vec<Vec<f64>> = counts
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                let s: f64 = row.iter().sum();
                // sentinet-allow(float-eq): an exactly-zero row sum cannot be normalised; the guard falls back to a self-loop
                if s == 0.0 {
                    // Never-left state: model as an absorbing self-loop.
                    let mut r = vec![0.0; num_states];
                    r[i] = 1.0;
                    r
                } else {
                    row.into_iter().map(|x| x / s).collect()
                }
            })
            .collect();
        let total: f64 = visits.iter().sum();
        let occupancy = visits.into_iter().map(|v| v / total).collect();
        Ok(Self {
            transition: StochasticMatrix::from_rows(rows)?,
            occupancy,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transition.num_rows()
    }

    /// The transition matrix.
    pub fn transition(&self) -> &StochasticMatrix {
        &self.transition
    }

    /// Empirical occupancy distribution.
    pub fn occupancy(&self) -> &[f64] {
        &self.occupancy
    }

    /// Stationary distribution by power iteration from the occupancy
    /// estimate, stopping at `tol` (L1) or `max_iters`.
    pub fn stationary(&self, tol: f64, max_iters: usize) -> Vec<f64> {
        let m = self.num_states();
        let mut pi = self.occupancy.clone();
        for _ in 0..max_iters {
            let mut next = vec![0.0; m];
            for i in 0..m {
                for (j, nx) in next.iter_mut().enumerate() {
                    *nx += pi[i] * self.transition[(i, j)];
                }
            }
            let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if diff < tol {
                break;
            }
        }
        pi
    }

    /// Indices of *key states*: occupancy at least `min_occupancy`. The
    /// paper drops the (16, 27) fluctuation state of Fig. 7 this way
    /// ("the transition to this state has a very low probability, and
    /// hence, this state is not further considered").
    pub fn key_states(&self, min_occupancy: f64) -> Vec<usize> {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|(_, &p)| p >= min_occupancy)
            .map(|(i, _)| i)
            .collect()
    }

    /// All transitions with probability at least `min_prob`, as
    /// `(from, to, prob)` triples — the edge list of Fig. 7.
    pub fn edges(&self, min_prob: f64) -> Vec<(usize, usize, f64)> {
        let m = self.num_states();
        let mut out = Vec::new();
        for i in 0..m {
            for j in 0..m {
                let p = self.transition[(i, j)];
                if p >= min_prob {
                    out.push((i, j, p));
                }
            }
        }
        out
    }

    /// Renders the chain in Graphviz DOT syntax with user-provided state
    /// labels, for direct visual comparison with the paper's Fig. 7.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != self.num_states()`.
    pub fn to_dot(&self, labels: &[String], min_prob: f64) -> String {
        assert_eq!(
            labels.len(),
            self.num_states(),
            "one label per state required"
        );
        let mut s = String::from("digraph markov {\n  rankdir=LR;\n");
        for (i, l) in labels.iter().enumerate() {
            s.push_str(&format!("  s{i} [label=\"{l}\"];\n"));
        }
        for (i, j, p) in self.edges(min_prob) {
            s.push_str(&format!("  s{i} -> s{j} [label=\"{p:.2}\"];\n"));
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for MarkovChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MarkovChain ({} states)", self.num_states())?;
        write!(f, "{}", self.transition)
    }
}

/// The Markov half of a chained
/// [`OnlineHmmEstimator`](crate::OnlineHmmEstimator): **A**, β and the
/// previous state, with the paper's `β`-exponential transition update
/// applied only when the state changes (`prev != state`), so a dwell
/// leaves the row untouched. The visits live beside **B**, whose row
/// update counts they are.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OnlineMarkovEstimator {
    pub(crate) transition: StochasticMatrix,
    pub(crate) beta: f64,
    pub(crate) prev: Option<usize>,
}

/// `value` when it lies in `(0, 1)`, as every learning factor must;
/// otherwise [`HmmError::InvalidParameter`] naming it `name`.
pub(crate) fn learning_factor(name: &'static str, value: f64) -> Result<f64> {
    if value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(HmmError::InvalidParameter {
            name,
            value,
            range: "(0, 1)",
        })
    }
}

impl OnlineMarkovEstimator {
    /// An estimator over `num_states` states with learning factor
    /// `beta`, **A** at the identity: `EmptyModel` without states,
    /// `InvalidParameter` for `beta` outside `(0, 1)`.
    pub(crate) fn new(num_states: usize, beta: f64) -> Result<Self> {
        let beta = learning_factor("beta", beta)?;
        Ok(Self {
            transition: StochasticMatrix::identity(num_states)?,
            beta,
            prev: None,
        })
    }

    /// Number of states currently tracked.
    pub(crate) fn num_states(&self) -> usize {
        self.transition.num_rows()
    }

    /// Feeds the next observed state (`StateOutOfRange` past the last).
    pub(crate) fn observe(&mut self, state: usize) -> Result<()> {
        if state >= self.num_states() {
            return Err(HmmError::StateOutOfRange {
                state,
                num_states: self.num_states(),
            });
        }
        if let Some(prev) = self.prev {
            if prev != state {
                self.transition.reinforce(prev, state, self.beta)?;
            }
        }
        self.prev = Some(state);
        Ok(())
    }

    /// Grows the estimator to at least `num_states` states.
    pub(crate) fn grow(&mut self, num_states: usize) {
        let add = num_states.saturating_sub(self.num_states());
        if add > 0 {
            self.transition.grow(add, add);
        }
    }
}

/// Plain-data image of the Markov half of an
/// [`OnlineHmmEstimator`](crate::OnlineHmmEstimator), inside its
/// [`EstimatorState`](crate::EstimatorState). Matrix rows are stored
/// verbatim (row-major `Vec<Vec<f64>>`), so a round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovState {
    /// Rows of the transition matrix (square).
    pub transition: Vec<Vec<f64>>,
    /// Transition learning factor β.
    pub beta: f64,
    /// State seen at the previous step, if any.
    pub prev: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sequence_counts_correctly() {
        let mc = MarkovChain::from_sequences(2, &[vec![0, 0, 1, 0, 1, 1]]).unwrap();
        // Transitions from 0: 0→0 once, 0→1 twice.
        assert!((mc.transition()[(0, 0)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((mc.transition()[(0, 1)] - 2.0 / 3.0).abs() < 1e-12);
        // occupancy: three 0s, three 1s.
        assert_eq!(mc.occupancy(), &[0.5, 0.5]);
    }

    #[test]
    fn from_sequence_never_left_state_self_loops() {
        let mc = MarkovChain::from_sequences(3, &[vec![0, 1, 0, 1]]).unwrap();
        assert_eq!(mc.transition()[(2, 2)], 1.0);
    }

    #[test]
    fn from_sequence_validates() {
        assert_eq!(
            MarkovChain::from_sequences(0, &[vec![0]]).unwrap_err(),
            HmmError::EmptyModel
        );
        for empty in [&[][..], &[vec![0, 1], vec![]]] {
            assert_eq!(
                MarkovChain::from_sequences(2, empty).unwrap_err(),
                HmmError::EmptySequence
            );
        }
        assert!(matches!(
            MarkovChain::from_sequences(2, &[vec![0, 1], vec![0, 5]]),
            Err(HmmError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn from_sequences_counts_no_seam_transition() {
        // Concatenated, the two would add a 2 → 0 transition that
        // occurs within neither.
        let mc = MarkovChain::from_sequences(3, &[vec![0, 1, 2, 2], vec![0, 1, 2]]).unwrap();
        assert_eq!(mc.transition()[(2, 0)], 0.0);
        assert_eq!(mc.transition()[(2, 2)], 1.0);
        assert!((mc.transition()[(0, 1)] - 1.0).abs() < 1e-12);
        assert!((mc.occupancy()[2] - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_of_two_state_chain() {
        // p(0→1)=0.2, p(1→0)=0.4 ⇒ π = (2/3, 1/3).
        let t = StochasticMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.4, 0.6]]).unwrap();
        let mc = MarkovChain::new(t, vec![0.5, 0.5]).unwrap();
        let pi = mc.stationary(1e-12, 100_000);
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn key_states_filters_low_occupancy() {
        let t = StochasticMatrix::identity(3).unwrap();
        let mc = MarkovChain::new(t, vec![0.48, 0.48, 0.04]).unwrap();
        assert_eq!(mc.key_states(0.05), vec![0, 1]);
    }

    #[test]
    fn edges_and_dot_output() {
        let mc = MarkovChain::from_sequences(2, &[vec![0, 1, 0, 1]]).unwrap();
        let edges = mc.edges(0.5);
        assert!(edges.contains(&(0, 1, 1.0)));
        let dot = mc.to_dot(&["(12,94)".into(), "(17,84)".into()], 0.5);
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("(12,94)"));
    }

    #[test]
    #[should_panic(expected = "one label per state")]
    fn to_dot_wrong_labels_panics() {
        let mc = MarkovChain::from_sequences(2, &[vec![0, 1]]).unwrap();
        mc.to_dot(&["a".into()], 0.0);
    }

    #[test]
    fn online_estimator_learns_alternation() {
        let mut est = OnlineMarkovEstimator::new(2, 0.9).unwrap();
        for t in 0..40 {
            est.observe(t % 2).unwrap();
        }
        assert!(est.transition[(0, 1)] > 0.99);
        assert!(est.transition[(1, 0)] > 0.99);
    }

    #[test]
    fn online_estimator_grow() {
        let mut est = OnlineMarkovEstimator::new(2, 0.9).unwrap();
        est.observe(0).unwrap();
        est.grow(4);
        assert_eq!(est.num_states(), 4);
        est.observe(3).unwrap();
        est.transition.check(1e-9).unwrap();
    }

    #[test]
    fn online_estimator_validates() {
        assert!(matches!(
            OnlineMarkovEstimator::new(2, 1.5),
            Err(HmmError::InvalidParameter { .. })
        ));
        let mut est = OnlineMarkovEstimator::new(2, 0.5).unwrap();
        assert!(matches!(
            est.observe(7),
            Err(HmmError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_estimator_chain_is_uniform() {
        let est = crate::OnlineHmmEstimator::new(4, 4, 0.5, 0.5).unwrap();
        let mc = est.markov_chain().unwrap();
        assert_eq!(mc.occupancy(), &[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(mc.transition(), &StochasticMatrix::identity(4).unwrap());
    }

    #[test]
    fn export_import_round_trips_bit_exactly() {
        let mut est = crate::OnlineHmmEstimator::new(3, 3, 0.9, 0.5).unwrap();
        for s in [0usize, 1, 1, 2, 0, 2, 1] {
            est.observe(s, s).unwrap();
        }
        let state = est.export_state();
        let half = state.chain.clone().unwrap();
        assert_eq!(half.beta, 0.9);
        assert_eq!(half.prev, Some(1));
        let a = est.transition().unwrap();
        for (row, saved) in a.iter_rows().zip(&half.transition) {
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(row), bits(saved));
        }
        let restored = crate::OnlineHmmEstimator::import_state(state).unwrap();
        assert_eq!(est, restored);
        // Continuing both yields identical estimates.
        let mut a = est;
        let mut b = restored;
        for s in [2usize, 0, 1, 2] {
            a.observe(s, s).unwrap();
            b.observe(s, s).unwrap();
        }
        assert_eq!(a, b);
    }

    #[test]
    fn import_state_validates() {
        let import = |chain: MarkovState| {
            let mut state = crate::OnlineHmmEstimator::new(2, 2, 0.5, 0.5)
                .unwrap()
                .export_state();
            state.chain = Some(chain);
            crate::OnlineHmmEstimator::import_state(state)
        };
        let good = MarkovState {
            transition: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            beta: 0.5,
            prev: None,
        };
        assert!(import(good.clone()).is_ok());
        let mut bad = good.clone();
        bad.beta = 1.5;
        assert!(matches!(
            import(bad),
            Err(HmmError::InvalidParameter { name: "beta", .. })
        ));
        let mut bad = good.clone();
        bad.transition = vec![vec![1.0, 0.0, 0.0]; 3];
        assert!(matches!(
            import(bad),
            Err(HmmError::DimensionMismatch { .. })
        ));
        let mut bad = good.clone();
        bad.prev = Some(9);
        assert!(matches!(import(bad), Err(HmmError::StateOutOfRange { .. })));
        let mut bad = good;
        bad.transition[0][0] = 0.7; // row no longer sums to 1
        assert!(import(bad).is_err());
    }
}
