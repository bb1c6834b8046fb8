//! Recursive (online) EM estimation of an HMM from observations alone.
//!
//! The paper sidesteps classical HMM identification by *estimating the
//! hidden state each window* from sensor redundancy and applying cheap
//! exponential updates (§3.2, [`crate::online::OnlineHmmEstimator`]).
//! Its footnote 3 points at "advanced on-line HMM estimation
//! techniques" (Stiller & Radons, IEEE SPL 1999) for settings where no
//! such side-channel exists. This module implements that alternative: a
//! fixed-step recursive EM in the style of Stiller–Radons/Cappé —
//!
//! 1. propagate the forward filter `α_t(j) ∝ Σ_i α_{t−1}(i)·a_ij·b_j(y_t)`;
//! 2. form the pairwise posterior `ξ_t(i,j) ∝ α_{t−1}(i)·a_ij·b_j(y_t)`;
//! 3. blend it into exponentially weighted sufficient statistics
//!    `S_A ← (1−η)S_A + η·ξ_t` and `S_B ← (1−η)S_B + η·γ_t⊗δ_{y_t}`;
//! 4. re-estimate `A`, `B` by row-normalizing the statistics.
//!
//! Unlike the paper's estimator it needs **no hidden-state estimates**
//! — only the observation stream — at the cost of slower, less
//! identifiable convergence (local optima, label permutation). The
//! `exp_online_em` bench quantifies that gap.

use crate::error::{HmmError, Result};
use crate::hmm::Hmm;
use crate::matrix::StochasticMatrix;

/// Recursive EM estimator over an observation stream.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sentinet_hmm::{Hmm, OnlineEmEstimator};
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let init = Hmm::random(2, 2, &mut rng)?;
/// let mut em = OnlineEmEstimator::new(init, 0.01)?;
/// for y in [0, 0, 1, 1, 0, 0, 1, 1] {
///     em.observe(y)?;
/// }
/// let model = em.to_hmm()?;
/// assert_eq!(model.num_states(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEmEstimator {
    a: StochasticMatrix,
    b: StochasticMatrix,
    /// Forward filter over hidden states (posterior of `s_t` given
    /// `y_1..y_t`).
    filter: Vec<f64>,
    /// EW sufficient statistics for transitions.
    s_a: Vec<Vec<f64>>,
    /// EW sufficient statistics for emissions.
    s_b: Vec<Vec<f64>>,
    eta: f64,
    /// Regularization added before normalization, keeping parameters
    /// strictly positive (a vanished entry can never recover in EM).
    floor: f64,
    steps: u64,
    started: bool,
}

impl OnlineEmEstimator {
    /// Creates an estimator from an initial model guess and step size
    /// `eta ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::InvalidParameter`] for an out-of-range step
    /// size.
    pub fn new(init: Hmm, eta: f64) -> Result<Self> {
        if !(eta > 0.0 && eta < 1.0) {
            return Err(HmmError::InvalidParameter {
                name: "eta",
                value: eta,
                range: "(0, 1)",
            });
        }
        let m = init.num_states();
        // Seed the statistics with the initial model so early M-steps
        // don't collapse onto the first few observations.
        let s_a = (0..m).map(|i| init.transition().row(i).to_vec()).collect();
        let s_b = (0..m).map(|i| init.observation().row(i).to_vec()).collect();
        Ok(Self {
            filter: init.initial().to_vec(),
            a: init.transition().clone(),
            b: init.observation().clone(),
            s_a,
            s_b,
            eta,
            floor: 1e-6,
            steps: 0,
            started: false,
        })
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.a.num_rows()
    }

    /// Number of observation symbols.
    pub fn num_symbols(&self) -> usize {
        self.b.num_cols()
    }

    /// Observations consumed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current forward-filter posterior over hidden states.
    pub fn filter(&self) -> &[f64] {
        &self.filter
    }

    /// Per-symbol predictive probability of `symbol` under the current
    /// model and filter — useful as an online scoring rule.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::SymbolOutOfRange`] for a bad symbol.
    pub fn predictive_prob(&self, symbol: usize) -> Result<f64> {
        if symbol >= self.num_symbols() {
            return Err(HmmError::SymbolOutOfRange {
                symbol,
                num_symbols: self.num_symbols(),
            });
        }
        let m = self.num_states();
        let mut p = 0.0;
        if self.started {
            for i in 0..m {
                for j in 0..m {
                    p += self.filter[i] * self.a[(i, j)] * self.b[(j, symbol)];
                }
            }
        } else {
            for (i, &pi) in self.filter.iter().enumerate() {
                p += pi * self.b[(i, symbol)];
            }
        }
        Ok(p)
    }

    /// Consumes one observation symbol: E-step on the pair posterior,
    /// statistics blend, and M-step re-estimation.
    ///
    /// # Errors
    ///
    /// - [`HmmError::SymbolOutOfRange`] for a bad symbol.
    /// - [`HmmError::ImpossibleSequence`] if the observation has zero
    ///   probability under the (floored) model — cannot occur with the
    ///   default positive floor.
    pub fn observe(&mut self, symbol: usize) -> Result<()> {
        let m = self.num_states();
        if symbol >= self.num_symbols() {
            return Err(HmmError::SymbolOutOfRange {
                symbol,
                num_symbols: self.num_symbols(),
            });
        }
        if !self.started {
            // First observation: condition the prior on y_0.
            let mut alpha: Vec<f64> = (0..m)
                .map(|i| self.filter[i] * self.b[(i, symbol)])
                .collect();
            let norm: f64 = alpha.iter().sum();
            if norm <= 0.0 {
                return Err(HmmError::ImpossibleSequence { time: 0 });
            }
            alpha.iter_mut().for_each(|x| *x /= norm);
            for i in 0..m {
                for k in 0..self.num_symbols() {
                    self.s_b[i][k] = (1.0 - self.eta) * self.s_b[i][k]
                        + self.eta * alpha[i] * f64::from(u8::from(k == symbol));
                }
            }
            self.filter = alpha;
            self.started = true;
            self.steps = 1;
            self.re_estimate()?;
            return Ok(());
        }

        // Pairwise posterior ξ(i, j) ∝ α(i)·a_ij·b_j(y).
        let mut xi = vec![vec![0.0; m]; m];
        let mut norm = 0.0;
        for i in 0..m {
            for (j, x) in xi[i].iter_mut().enumerate() {
                *x = self.filter[i] * self.a[(i, j)] * self.b[(j, symbol)];
                norm += *x;
            }
        }
        if norm <= 0.0 {
            return Err(HmmError::ImpossibleSequence {
                time: self.steps as usize,
            });
        }
        let mut gamma = vec![0.0; m];
        for i in 0..m {
            for j in 0..m {
                xi[i][j] /= norm;
                gamma[j] += xi[i][j];
            }
        }

        // Blend sufficient statistics.
        for i in 0..m {
            for j in 0..m {
                self.s_a[i][j] = (1.0 - self.eta) * self.s_a[i][j] + self.eta * xi[i][j];
            }
            for k in 0..self.num_symbols() {
                self.s_b[i][k] = (1.0 - self.eta) * self.s_b[i][k]
                    + self.eta * gamma[i] * f64::from(u8::from(k == symbol));
            }
        }
        self.filter = gamma;
        self.steps += 1;
        self.re_estimate()
    }

    fn re_estimate(&mut self) -> Result<()> {
        let normalize = |stats: &[Vec<f64>], floor: f64| -> Result<StochasticMatrix> {
            let rows: Vec<Vec<f64>> = stats
                .iter()
                .map(|r| {
                    let s: f64 = r.iter().map(|x| x + floor).sum();
                    r.iter().map(|x| (x + floor) / s).collect()
                })
                .collect();
            StochasticMatrix::from_rows(rows)
        };
        self.a = normalize(&self.s_a, self.floor)?;
        self.b = normalize(&self.s_b, self.floor)?;
        Ok(())
    }

    /// The current transition estimate.
    pub fn transition(&self) -> &StochasticMatrix {
        &self.a
    }

    /// The current observation estimate.
    pub fn observation(&self) -> &StochasticMatrix {
        &self.b
    }

    /// Snapshot of the current model, with the forward filter as the
    /// initial distribution.
    ///
    /// # Errors
    ///
    /// Propagates [`Hmm::new`] errors (cannot occur when invariants
    /// held).
    pub fn to_hmm(&self) -> Result<Hmm> {
        Hmm::new(self.a.clone(), self.b.clone(), self.filter.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth() -> Hmm {
        let a = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        Hmm::new(a, b, vec![0.5, 0.5]).unwrap()
    }

    #[test]
    fn rejects_bad_eta() {
        let init = Hmm::uniform(2, 2).unwrap();
        assert!(matches!(
            OnlineEmEstimator::new(init, 1.0),
            Err(HmmError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn matrices_stay_stochastic() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, obs) = truth().sample(2_000, &mut rng).unwrap();
        let init = Hmm::random(2, 2, &mut rng).unwrap();
        let mut em = OnlineEmEstimator::new(init, 0.02).unwrap();
        for y in obs {
            em.observe(y).unwrap();
        }
        em.transition().check(1e-7).unwrap();
        em.observation().check(1e-7).unwrap();
        let fs: f64 = em.filter().iter().sum();
        assert!((fs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_emission_structure_unsupervised() {
        let mut rng = StdRng::seed_from_u64(7);
        let (_, obs) = truth().sample(8_000, &mut rng).unwrap();
        let init = Hmm::random(2, 2, &mut rng).unwrap();
        let mut em = OnlineEmEstimator::new(init, 0.01).unwrap();
        for &y in &obs {
            em.observe(y).unwrap();
        }
        // Up to permutation, the two states must specialize.
        let b = em.observation();
        let modes = b.row_argmax();
        assert_ne!(modes[0], modes[1], "states failed to specialize: B = {b}");
        assert!(b.row(0)[modes[0]] > 0.75, "B = {b}");
        assert!(b.row(1)[modes[1]] > 0.75, "B = {b}");
        // Transitions must reflect the strong diagonal dwell.
        let a = em.transition();
        assert!(a[(0, 0)] > 0.7 && a[(1, 1)] > 0.7, "A = {a}");
    }

    #[test]
    fn predictive_likelihood_beats_initial_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let (_, obs) = truth().sample(6_000, &mut rng).unwrap();
        let init = Hmm::random(2, 2, &mut rng).unwrap();
        let mut em = OnlineEmEstimator::new(init.clone(), 0.01).unwrap();
        // Accumulate per-step predictive log-loss over the second half
        // (after burn-in) and compare with the frozen initial model.
        let mut em_loss = 0.0;
        let mut init_em = OnlineEmEstimator::new(init, 1e-9).unwrap(); // ~frozen
        let mut init_loss = 0.0;
        for (t, &y) in obs.iter().enumerate() {
            if t >= obs.len() / 2 {
                em_loss -= em.predictive_prob(y).unwrap().max(1e-12).ln();
                init_loss -= init_em.predictive_prob(y).unwrap().max(1e-12).ln();
            }
            em.observe(y).unwrap();
            init_em.observe(y).unwrap();
        }
        assert!(
            em_loss < init_loss,
            "online EM {em_loss} should beat frozen init {init_loss}"
        );
    }

    #[test]
    fn out_of_range_symbol_rejected() {
        let mut em = OnlineEmEstimator::new(Hmm::uniform(2, 2).unwrap(), 0.05).unwrap();
        assert!(matches!(
            em.observe(5),
            Err(HmmError::SymbolOutOfRange { .. })
        ));
        assert!(em.predictive_prob(5).is_err());
    }

    #[test]
    fn predictive_probs_form_distribution() {
        let mut rng = StdRng::seed_from_u64(9);
        let (_, obs) = truth().sample(200, &mut rng).unwrap();
        let mut em = OnlineEmEstimator::new(Hmm::random(2, 2, &mut rng).unwrap(), 0.05).unwrap();
        for y in obs {
            em.observe(y).unwrap();
            let total: f64 = (0..2).map(|k| em.predictive_prob(k).unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-9, "predictive total {total}");
        }
    }

    #[test]
    fn snapshot_is_valid_model() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut em = OnlineEmEstimator::new(Hmm::random(3, 4, &mut rng).unwrap(), 0.05).unwrap();
        for y in [0, 1, 2, 3, 2, 1, 0] {
            em.observe(y).unwrap();
        }
        let h = em.to_hmm().unwrap();
        assert!(h.log_likelihood(&[0, 1, 2]).is_ok());
        assert_eq!(em.steps(), 7);
    }
}
