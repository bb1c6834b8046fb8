//! The Warrender–Forrest-style HMM anomaly detector (paper ref. [5]).
//!
//! The approach `sentinet` positions itself against: train a single HMM
//! `λ` on *attack-free* observation sequences with Baum–Welch, then at
//! test time flag a window as anomalous when its normalized
//! log-likelihood `ln Pr{O|λ} / |O|` falls below a threshold `η`.
//!
//! The limitations the paper lists (§2) are visible in this API:
//!
//! 1. hidden states are arbitrary (a `num_states` knob, no physical
//!    meaning);
//! 2. it *requires* a clean training phase ([`HmmDetector::train`] must
//!    be called on attack-free data) and training is expensive;
//! 3. there is no distributed redundancy and no diagnosis — the output
//!    is a binary anomaly flag per window.

use sentinet_hmm::{baum_welch, BaumWelchConfig, Hmm, HmmError};

/// Baum–Welch iterations a training restart may take to converge.
const TRAIN_ITERS: usize = 1_000;

/// Likelihood-threshold anomaly detector over discrete symbol windows.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sentinet_baselines::HmmDetector;
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Train on a benign alternating pattern.
/// let train: Vec<Vec<usize>> = (0..4)
///     .map(|_| (0..60).map(|t| t % 2).collect())
///     .collect();
/// let mut det = HmmDetector::new(2, 2);
/// det.train(&train, &mut rng)?;
/// det.calibrate(&train, 3.0)?;
/// assert!(!det.is_anomalous(&(0..60).map(|t| t % 2).collect::<Vec<_>>())?);
/// assert!(det.is_anomalous(&vec![1; 60])?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HmmDetector {
    num_states: usize,
    num_symbols: usize,
    model: Option<Hmm>,
    threshold: Option<f64>,
}

impl HmmDetector {
    /// Creates an untrained detector with an arbitrary hidden-state
    /// count (limitation 1 of §2).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_states: usize, num_symbols: usize) -> Self {
        assert!(
            num_states > 0 && num_symbols > 0,
            "dimensions must be positive"
        );
        Self {
            num_states,
            num_symbols,
            model: None,
            threshold: None,
        }
    }

    /// Trains `λ` on attack-free sequences with Baum–Welch, keeping the
    /// best of three random restarts, each run until it converges (at
    /// most 1 000 iterations): from a random start EM can crawl along
    /// the plateau where both states emit alike for hundreds of
    /// iterations, and a restart cut off there is a model of nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`baum_welch()`](sentinet_hmm::baum_welch()) errors
    /// (empty input, symbol range).
    pub fn train<R: rand::Rng + ?Sized>(
        &mut self,
        clean_sequences: &[Vec<usize>],
        rng: &mut R,
    ) -> Result<(), HmmError> {
        let config = BaumWelchConfig {
            max_iters: TRAIN_ITERS,
            ..BaumWelchConfig::default()
        };
        let mut best: Option<(f64, Hmm)> = None;
        for _ in 0..3 {
            let init = Hmm::random(self.num_states, self.num_symbols, rng)?;
            let trained = baum_welch(&init, clean_sequences, &config)?;
            let ll: f64 = clean_sequences
                .iter()
                .map(|s| trained.hmm.log_likelihood(s).unwrap_or(f64::NEG_INFINITY))
                .sum();
            if best.as_ref().map(|(b, _)| ll > *b).unwrap_or(true) {
                best = Some((ll, trained.hmm));
            }
        }
        // sentinet-allow(expect-used): at least one restart always runs, so a best-scoring model exists
        self.model = Some(best.expect("three restarts ran").1);
        Ok(())
    }

    /// Sets the anomaly threshold `η` to `z` standard deviations below
    /// the mean per-symbol log-likelihood of `reference` sequences.
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptySequence`] if `reference` is empty or the
    ///   detector scores nothing.
    /// - Scoring errors from the model.
    ///
    /// # Panics
    ///
    /// Panics if called before [`HmmDetector::train`].
    pub fn calibrate(&mut self, reference: &[Vec<usize>], z: f64) -> Result<(), HmmError> {
        if reference.is_empty() {
            return Err(HmmError::EmptySequence);
        }
        let scores: Vec<f64> = reference
            .iter()
            .map(|s| self.score(s))
            .collect::<Result<_, _>>()?;
        let n = scores.len() as f64;
        let mean = scores.iter().sum::<f64>() / n;
        let var = scores.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        self.threshold = Some(mean - z * var.sqrt().max(1e-3));
        Ok(())
    }

    /// Per-symbol log-likelihood of a window under `λ`.
    ///
    /// # Errors
    ///
    /// Scoring errors from the model (empty window, bad symbol). An
    /// impossible sequence scores `-inf` rather than erroring.
    ///
    /// # Panics
    ///
    /// Panics if called before [`HmmDetector::train`].
    pub fn score(&self, window: &[usize]) -> Result<f64, HmmError> {
        // sentinet-allow(expect-used): detect is documented to require train() first; absence is a caller bug
        let model = self.model.as_ref().expect("train the detector first");
        match model.log_likelihood(window) {
            Ok(ll) => Ok(ll / window.len() as f64),
            Err(HmmError::ImpossibleSequence { .. }) => Ok(f64::NEG_INFINITY),
            Err(e) => Err(e),
        }
    }

    /// Whether a window is anomalous: `score < η`.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors.
    ///
    /// # Panics
    ///
    /// Panics if called before [`HmmDetector::train`] and
    /// [`HmmDetector::calibrate`].
    pub fn is_anomalous(&self, window: &[usize]) -> Result<bool, HmmError> {
        // sentinet-allow(expect-used): score is documented to require calibrate() first; absence is a caller bug
        let eta = self.threshold.expect("calibrate the detector first");
        Ok(self.score(window)? < eta)
    }

    /// The trained model, if any.
    pub fn model(&self) -> Option<&Hmm> {
        self.model.as_ref()
    }

    /// The calibrated threshold `η`, if any.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sentinet_hmm::StochasticMatrix;

    fn benign_source() -> Hmm {
        let a = StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        Hmm::new(a, b, vec![0.5, 0.5]).unwrap()
    }

    #[test]
    fn detects_distribution_shift() {
        let mut rng = StdRng::seed_from_u64(3);
        let src = benign_source();
        let train: Vec<Vec<usize>> = (0..6)
            .map(|_| src.sample(80, &mut rng).unwrap().1)
            .collect();
        let mut det = HmmDetector::new(2, 2);
        det.train(&train, &mut rng).unwrap();
        det.calibrate(&train, 3.0).unwrap();
        // Benign windows pass.
        let benign = src.sample(80, &mut rng).unwrap().1;
        assert!(!det.is_anomalous(&benign).unwrap());
        // A rapid-switching window violates the learned dwell structure.
        let hostile: Vec<usize> = (0..80).map(|t| t % 2).collect();
        assert!(det.is_anomalous(&hostile).unwrap());
    }

    /// At this seed all three random starts crawl along the plateau
    /// where both states emit alike: cut off after 100 iterations the
    /// best of them explained its training data 70 nats worse than the
    /// generator did, and scored every-other-symbol-flipped windows as
    /// *more* likely than clean ones. Run to convergence, one leaves it.
    #[test]
    fn training_leaves_the_plateau_where_both_states_emit_alike() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        let src = Hmm::new(a, b, vec![0.5, 0.5]).unwrap();
        let train: Vec<Vec<usize>> = (0..4)
            .map(|_| src.sample(100, &mut rng).unwrap().1)
            .collect();
        let mut det = HmmDetector::new(2, 2);
        det.train(&train, &mut rng).unwrap();
        let ll = |m: &Hmm| -> f64 { train.iter().map(|s| m.log_likelihood(s).unwrap()).sum() };
        let (trained, truth) = (ll(det.model().unwrap()), ll(&src));
        assert!(trained >= truth, "trained {trained} < generator {truth}");
    }

    #[test]
    fn score_is_per_symbol() {
        let mut rng = StdRng::seed_from_u64(5);
        let src = benign_source();
        let train = vec![src.sample(100, &mut rng).unwrap().1];
        let mut det = HmmDetector::new(2, 2);
        det.train(&train, &mut rng).unwrap();
        let w = src.sample(50, &mut rng).unwrap().1;
        let s = det.score(&w).unwrap();
        assert!(s < 0.0 && s > -5.0, "score {s}");
    }

    #[test]
    fn unseen_symbol_scores_neg_infinity_not_error() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut det = HmmDetector::new(2, 3);
        // Train only on symbols {0, 1}; symbol 2 never appears but
        // smoothing keeps its probability positive.
        det.train(&[vec![0, 1, 0, 1, 0, 1, 0, 1]], &mut rng)
            .unwrap();
        let s = det.score(&[2, 2, 2]).unwrap();
        assert!(s.is_finite(), "smoothed model should score unseen symbols");
        assert!(s < -2.0, "unseen symbols must score poorly: {s}");
    }

    #[test]
    #[should_panic(expected = "train the detector")]
    fn score_before_train_panics() {
        let det = HmmDetector::new(2, 2);
        let _ = det.score(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "calibrate the detector")]
    fn anomaly_before_calibrate_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut det = HmmDetector::new(2, 2);
        det.train(&[vec![0, 1, 0, 1]], &mut rng).unwrap();
        let _ = det.is_anomalous(&[0, 1]);
    }

    #[test]
    fn calibrate_empty_is_error() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut det = HmmDetector::new(2, 2);
        det.train(&[vec![0, 1, 0, 1]], &mut rng).unwrap();
        assert!(det.calibrate(&[], 3.0).is_err());
    }
}
