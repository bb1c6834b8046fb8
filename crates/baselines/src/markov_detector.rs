//! Markov-chain anomaly detector à la Jha–Tan–Maxion (paper ref. [11]).
//!
//! Trains a first-order Markov chain on clean state sequences and
//! classifies a test window by its *miss rate*: the fraction of observed
//! transitions whose trained probability falls below a support
//! threshold. High miss rate ⇒ anomalous.

use sentinet_hmm::{HmmError, MarkovChain};

/// Markov-chain anomaly detector over discrete state sequences.
///
/// # Examples
///
/// ```
/// use sentinet_baselines::MarkovDetector;
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let train: Vec<usize> = (0..200).map(|t| (t / 4) % 3).collect();
/// let det = MarkovDetector::train(3, &[train], 0.01, 0.3)?;
/// let benign: Vec<usize> = (0..40).map(|t| (t / 4) % 3).collect();
/// assert!(!det.is_anomalous(&benign)?);
/// let hostile = vec![2, 0, 2, 0, 2, 0, 2, 0]; // reversed transitions
/// assert!(det.is_anomalous(&hostile)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MarkovDetector {
    chain: MarkovChain,
    /// Which states appeared in training: a transition *from* an unseen
    /// state is always a miss (its transition row is an artificial
    /// self-loop, not evidence).
    visited: Vec<bool>,
    support: f64,
    miss_threshold: f64,
}

impl MarkovDetector {
    /// Trains on clean sequences. A transition is *supported* when its
    /// trained probability is at least `support`; a window is anomalous
    /// when more than `miss_threshold` of its transitions are
    /// unsupported.
    ///
    /// # Errors
    ///
    /// As [`MarkovChain::from_sequences`]: no training data, an empty
    /// sequence or a bad symbol.
    ///
    /// # Panics
    ///
    /// Panics if `support` or `miss_threshold` lie outside `[0, 1]`.
    pub fn train(
        num_states: usize,
        clean_sequences: &[Vec<usize>],
        support: f64,
        miss_threshold: f64,
    ) -> Result<Self, HmmError> {
        assert!(
            (0.0..=1.0).contains(&support) && (0.0..=1.0).contains(&miss_threshold),
            "support and miss threshold must be probabilities"
        );
        let chain = MarkovChain::from_sequences(num_states, clean_sequences)?;
        let visited = chain.occupancy().iter().map(|&o| o > 0.0).collect();
        Ok(Self {
            chain,
            visited,
            support,
            miss_threshold,
        })
    }

    /// Fraction of transitions in `window` whose trained probability is
    /// below the support threshold.
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptySequence`] for windows shorter than 2.
    /// - [`HmmError::StateOutOfRange`] for bad symbols.
    pub fn miss_rate(&self, window: &[usize]) -> Result<f64, HmmError> {
        if window.len() < 2 {
            return Err(HmmError::EmptySequence);
        }
        let m = self.chain.num_states();
        let mut misses = 0usize;
        for w in window.windows(2) {
            if w[0] >= m || w[1] >= m {
                return Err(HmmError::StateOutOfRange {
                    state: w[0].max(w[1]),
                    num_states: m,
                });
            }
            if !self.visited[w[0]] || self.chain.transition()[(w[0], w[1])] < self.support {
                misses += 1;
            }
        }
        Ok(misses as f64 / (window.len() - 1) as f64)
    }

    /// Whether the window's miss rate exceeds the threshold.
    ///
    /// # Errors
    ///
    /// Propagates [`MarkovDetector::miss_rate`] errors.
    pub fn is_anomalous(&self, window: &[usize]) -> Result<bool, HmmError> {
        Ok(self.miss_rate(window)? > self.miss_threshold)
    }

    /// The trained chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_train() -> Vec<Vec<usize>> {
        // 0,0,1,1,2,2,0,0,... strong cyclic structure.
        (0..4)
            .map(|_| (0..120).map(|t| (t / 2) % 3).collect())
            .collect()
    }

    #[test]
    fn benign_windows_pass() {
        let det = MarkovDetector::train(3, &cyclic_train(), 0.01, 0.3).unwrap();
        let benign: Vec<usize> = (0..30).map(|t| (t / 2) % 3).collect();
        assert!(!det.is_anomalous(&benign).unwrap());
        assert_eq!(det.miss_rate(&benign).unwrap(), 0.0);
    }

    #[test]
    fn reversed_transitions_flagged() {
        let det = MarkovDetector::train(3, &cyclic_train(), 0.01, 0.3).unwrap();
        let hostile = vec![2, 1, 0, 2, 1, 0, 2, 1, 0];
        assert!(det.miss_rate(&hostile).unwrap() > 0.5);
        assert!(det.is_anomalous(&hostile).unwrap());
    }

    #[test]
    fn short_window_is_error() {
        let det = MarkovDetector::train(3, &cyclic_train(), 0.01, 0.3).unwrap();
        assert!(det.miss_rate(&[1]).is_err());
    }

    #[test]
    fn out_of_range_symbol_is_error() {
        let det = MarkovDetector::train(3, &cyclic_train(), 0.01, 0.3).unwrap();
        assert!(det.miss_rate(&[0, 7]).is_err());
    }

    #[test]
    fn empty_training_is_error() {
        assert!(MarkovDetector::train(3, &[], 0.01, 0.3).is_err());
        assert!(MarkovDetector::train(3, &[vec![]], 0.01, 0.3).is_err());
    }

    #[test]
    fn unseen_state_transitions_are_misses() {
        // Training never visits state 3; a window dwelling there must
        // be flagged even though its artificial row is a self-loop.
        let det = MarkovDetector::train(4, &cyclic_train(), 0.01, 0.3).unwrap();
        let stuck = vec![3usize; 10];
        assert_eq!(det.miss_rate(&stuck).unwrap(), 1.0);
        assert!(det.is_anomalous(&stuck).unwrap());
    }

    #[test]
    fn seams_do_not_create_transitions() {
        // Two sequences ending/starting such that a concatenation would
        // fabricate a 2→0 transition that never occurs within either.
        let det =
            MarkovDetector::train(3, &[vec![0, 1, 2, 2, 2], vec![0, 1, 2, 2]], 0.01, 0.3).unwrap();
        assert_eq!(det.chain().transition()[(2, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "must be probabilities")]
    fn bad_thresholds_panic() {
        let _ = MarkovDetector::train(2, &[vec![0, 1]], 1.5, 0.3);
    }
}
