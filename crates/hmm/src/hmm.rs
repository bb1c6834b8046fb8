//! Dense discrete Hidden Markov Models with scaled inference.
//!
//! Implements the classical triple `λ = (A, B, π)` of Rabiner's tutorial
//! (the paper's reference [8]) with numerically scaled forward/backward
//! passes, Viterbi decoding, and sequence sampling. Training lives in
//! [`crate::baum_welch`] (batch) and [`crate::online`] (the paper's §3.2
//! exponential estimator).

use crate::error::{HmmError, Result};
use crate::matrix::{validate_distribution, StochasticMatrix, STOCHASTIC_TOL};
use rand::Rng;

/// A discrete Hidden Markov Model `λ = (A, B, π)`.
///
/// - `M = num_states()` hidden states `S_1..S_M`;
/// - `N = num_symbols()` observation symbols `V_1..V_N`;
/// - `A[i][j] = Pr{s_{t+1} = S_j | s_t = S_i}`;
/// - `B[i][k] = Pr{v_t = V_k | s_t = S_i}`;
/// - `π[i] = Pr{s_0 = S_i}`.
///
/// # Examples
///
/// ```
/// use sentinet_hmm::{Hmm, StochasticMatrix};
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let a = StochasticMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.4, 0.6]])?;
/// let b = StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]])?;
/// let hmm = Hmm::new(a, b, vec![0.6, 0.4])?;
/// let ll = hmm.log_likelihood(&[0, 1, 0])?;
/// assert!(ll < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    a: StochasticMatrix,
    b: StochasticMatrix,
    pi: Vec<f64>,
}

/// Result of a scaled forward pass.
///
/// `alpha_hat[t][i]` is the scaled forward variable and `scale[t]` the
/// per-step normalizer; `log Pr{O|λ} = Σ_t ln scale[t]`.
#[derive(Debug, Clone)]
pub struct Forward {
    /// Scaled forward variables, one row per time step.
    pub alpha_hat: Vec<Vec<f64>>,
    /// Per-step scaling factors (each > 0).
    pub scale: Vec<f64>,
}

impl Forward {
    /// Log-likelihood of the observation sequence that produced this pass.
    pub fn log_likelihood(&self) -> f64 {
        self.scale.iter().map(|c| c.ln()).sum()
    }
}

/// Result of Viterbi decoding: the maximum-probability state path and
/// its log-probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ViterbiPath {
    /// Most likely hidden state sequence.
    pub states: Vec<usize>,
    /// Log joint probability `ln Pr{O, path | λ}`.
    pub log_prob: f64,
}

impl Hmm {
    /// Creates an HMM from its parameter triple.
    ///
    /// # Errors
    ///
    /// - [`HmmError::DimensionMismatch`] if `A` is not square, or `B`/`π`
    ///   do not agree with `A` on the number of states.
    /// - [`HmmError::NotStochastic`] if `π` is not a distribution.
    pub fn new(a: StochasticMatrix, b: StochasticMatrix, pi: Vec<f64>) -> Result<Self> {
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
        if pi.len() != m {
            return Err(HmmError::DimensionMismatch {
                what: "initial distribution".into(),
                expected: m,
                actual: pi.len(),
            });
        }
        validate_distribution(&pi, "initial distribution", STOCHASTIC_TOL)?;
        Ok(Self { a, b, pi })
    }

    /// Creates an HMM with uniform `A`, `B` and `π` — a common
    /// uninformative starting point for Baum–Welch.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::EmptyModel`] if either dimension is zero.
    pub fn uniform(num_states: usize, num_symbols: usize) -> Result<Self> {
        Ok(Self {
            a: StochasticMatrix::uniform(num_states, num_states)?,
            b: StochasticMatrix::uniform(num_states, num_symbols)?,
            pi: vec![1.0 / num_states as f64; num_states],
        })
    }

    /// Creates an HMM with randomly perturbed uniform parameters, which
    /// breaks the symmetry that traps Baum–Welch at the uniform saddle
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::EmptyModel`] if either dimension is zero.
    pub fn random<R: Rng + ?Sized>(
        num_states: usize,
        num_symbols: usize,
        rng: &mut R,
    ) -> Result<Self> {
        fn random_row<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
            let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
            let s: f64 = row.iter().sum();
            row.iter_mut().for_each(|x| *x /= s);
            row
        }
        if num_states == 0 || num_symbols == 0 {
            return Err(HmmError::EmptyModel);
        }
        let a = StochasticMatrix::from_rows(
            (0..num_states)
                .map(|_| random_row(num_states, rng))
                .collect(),
        )?;
        let b = StochasticMatrix::from_rows(
            (0..num_states)
                .map(|_| random_row(num_symbols, rng))
                .collect(),
        )?;
        let pi = random_row(num_states, rng);
        Self::new(a, b, pi)
    }

    /// Number of hidden states `M`.
    pub fn num_states(&self) -> usize {
        self.a.num_rows()
    }

    /// Number of observation symbols `N`.
    pub fn num_symbols(&self) -> usize {
        self.b.num_cols()
    }

    /// The state transition distribution **A**.
    pub fn transition(&self) -> &StochasticMatrix {
        &self.a
    }

    /// The observation symbol distribution **B**.
    pub fn observation(&self) -> &StochasticMatrix {
        &self.b
    }

    /// The initial state distribution **π**.
    pub fn initial(&self) -> &[f64] {
        &self.pi
    }

    fn check_symbols(&self, obs: &[usize]) -> Result<()> {
        if obs.is_empty() {
            return Err(HmmError::EmptySequence);
        }
        let n = self.num_symbols();
        for &o in obs {
            if o >= n {
                return Err(HmmError::SymbolOutOfRange {
                    symbol: o,
                    num_symbols: n,
                });
            }
        }
        Ok(())
    }

    /// Runs the scaled forward algorithm on `obs`.
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptySequence`] / [`HmmError::SymbolOutOfRange`] on
    ///   invalid input.
    /// - [`HmmError::ImpossibleSequence`] if the sequence has zero
    ///   probability under the model.
    pub fn forward(&self, obs: &[usize]) -> Result<Forward> {
        self.check_symbols(obs)?;
        let m = self.num_states();
        let mut alpha_hat = Vec::with_capacity(obs.len());
        let mut scale = Vec::with_capacity(obs.len());

        let mut alpha: Vec<f64> = (0..m).map(|i| self.pi[i] * self.b[(i, obs[0])]).collect();
        let c0: f64 = alpha.iter().sum();
        if c0 <= 0.0 {
            return Err(HmmError::ImpossibleSequence { time: 0 });
        }
        alpha.iter_mut().for_each(|x| *x /= c0);
        scale.push(c0);
        alpha_hat.push(alpha.clone());

        for (t, &o) in obs.iter().enumerate().skip(1) {
            let mut next = vec![0.0; m];
            for (j, nx) in next.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (i, &ai) in alpha.iter().enumerate() {
                    acc += ai * self.a[(i, j)];
                }
                *nx = acc * self.b[(j, o)];
            }
            let c: f64 = next.iter().sum();
            if c <= 0.0 {
                return Err(HmmError::ImpossibleSequence { time: t });
            }
            next.iter_mut().for_each(|x| *x /= c);
            scale.push(c);
            alpha_hat.push(next.clone());
            alpha = next;
        }
        Ok(Forward { alpha_hat, scale })
    }

    /// Runs the scaled backward algorithm using the scaling factors from
    /// a prior forward pass (standard Rabiner scaling).
    ///
    /// Returns `beta_hat[t][i]`.
    ///
    /// # Errors
    ///
    /// Propagates input-validation errors; also returns
    /// [`HmmError::DimensionMismatch`] if `scale` does not match `obs`.
    pub fn backward(&self, obs: &[usize], scale: &[f64]) -> Result<Vec<Vec<f64>>> {
        self.check_symbols(obs)?;
        if scale.len() != obs.len() {
            return Err(HmmError::DimensionMismatch {
                what: "scale vector".into(),
                expected: obs.len(),
                actual: scale.len(),
            });
        }
        let m = self.num_states();
        let t_len = obs.len();
        let mut beta_hat = vec![vec![0.0; m]; t_len];
        for i in 0..m {
            beta_hat[t_len - 1][i] = 1.0 / scale[t_len - 1];
        }
        for t in (0..t_len - 1).rev() {
            for i in 0..m {
                let mut acc = 0.0;
                for j in 0..m {
                    acc += self.a[(i, j)] * self.b[(j, obs[t + 1])] * beta_hat[t + 1][j];
                }
                beta_hat[t][i] = acc / scale[t];
            }
        }
        Ok(beta_hat)
    }

    /// Log-likelihood `ln Pr{O | λ}` of an observation sequence.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Hmm::forward`].
    pub fn log_likelihood(&self, obs: &[usize]) -> Result<f64> {
        Ok(self.forward(obs)?.log_likelihood())
    }

    /// Viterbi decoding: the single most probable hidden state path.
    ///
    /// Works in log space so it cannot underflow.
    ///
    /// # Errors
    ///
    /// - Input-validation errors as for [`Hmm::forward`].
    /// - [`HmmError::ImpossibleSequence`] if no path has positive
    ///   probability.
    pub fn viterbi(&self, obs: &[usize]) -> Result<ViterbiPath> {
        self.check_symbols(obs)?;
        let m = self.num_states();
        let t_len = obs.len();
        let ln = |x: f64| if x > 0.0 { x.ln() } else { f64::NEG_INFINITY };

        let mut delta: Vec<f64> = (0..m)
            .map(|i| ln(self.pi[i]) + ln(self.b[(i, obs[0])]))
            .collect();
        let mut psi = vec![vec![0usize; m]; t_len];

        for t in 1..t_len {
            let mut next = vec![f64::NEG_INFINITY; m];
            for j in 0..m {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0usize;
                for i in 0..m {
                    let v = delta[i] + ln(self.a[(i, j)]);
                    if v > best {
                        best = v;
                        arg = i;
                    }
                }
                next[j] = best + ln(self.b[(j, obs[t])]);
                psi[t][j] = arg;
            }
            delta = next;
        }
        let (mut state, &log_prob) = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            // sentinet-allow(expect-used): models are constructed with at least one state
            .expect("model has at least one state");
        if log_prob == f64::NEG_INFINITY {
            return Err(HmmError::ImpossibleSequence { time: t_len - 1 });
        }
        let mut states = vec![0usize; t_len];
        states[t_len - 1] = state;
        for t in (1..t_len).rev() {
            state = psi[t][state];
            states[t - 1] = state;
        }
        Ok(ViterbiPath { states, log_prob })
    }

    /// Samples a `(states, observations)` trajectory of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::EmptySequence`] if `len == 0`.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        len: usize,
        rng: &mut R,
    ) -> Result<(Vec<usize>, Vec<usize>)> {
        if len == 0 {
            return Err(HmmError::EmptySequence);
        }
        fn draw<R: Rng + ?Sized>(dist: &[f64], rng: &mut R) -> usize {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            for (i, &p) in dist.iter().enumerate() {
                acc += p;
                if u < acc {
                    return i;
                }
            }
            dist.len() - 1
        }
        let mut states = Vec::with_capacity(len);
        let mut obs = Vec::with_capacity(len);
        let mut s = draw(&self.pi, rng);
        for _ in 0..len {
            states.push(s);
            obs.push(draw(self.b.row(s), rng));
            s = draw(self.a.row(s), rng);
        }
        Ok((states, obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Hmm {
        let a = StochasticMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.4, 0.6]]).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
        Hmm::new(a, b, vec![0.6, 0.4]).unwrap()
    }

    /// Brute-force Pr{O|λ} by enumerating all state paths.
    fn brute_force_likelihood(h: &Hmm, obs: &[usize]) -> f64 {
        let m = h.num_states();
        let t = obs.len();
        let mut total = 0.0;
        let paths = m.pow(t as u32);
        for code in 0..paths {
            let mut c = code;
            let mut path = Vec::with_capacity(t);
            for _ in 0..t {
                path.push(c % m);
                c /= m;
            }
            let mut p = h.initial()[path[0]] * h.observation()[(path[0], obs[0])];
            for i in 1..t {
                p *= h.transition()[(path[i - 1], path[i])] * h.observation()[(path[i], obs[i])];
            }
            total += p;
        }
        total
    }

    #[test]
    fn forward_matches_brute_force() {
        let h = toy();
        for obs in [vec![0], vec![0, 1], vec![1, 1, 0], vec![0, 1, 0, 1, 1]] {
            let ll = h.log_likelihood(&obs).unwrap();
            let bf = brute_force_likelihood(&h, &obs).ln();
            assert!(
                (ll - bf).abs() < 1e-10,
                "obs {obs:?}: scaled {ll} vs brute {bf}"
            );
        }
    }

    #[test]
    fn backward_consistency() {
        // Likelihood computed from beta at t=0 must match forward.
        let h = toy();
        let obs = vec![0, 1, 1, 0, 1];
        let fwd = h.forward(&obs).unwrap();
        let beta_hat = h.backward(&obs, &fwd.scale).unwrap();
        // Pr{O} = Σ_i π_i b_i(o_0) β_0(i); with scaling the identity
        // becomes Σ_i π_i b_i(o_0) β̂_0(i) = 1.
        let mut s = 0.0;
        for i in 0..h.num_states() {
            s += h.initial()[i] * h.observation()[(i, obs[0])] * beta_hat[0][i];
        }
        // With Rabiner scaling, this sum equals exactly 1.
        assert!((s - 1.0).abs() < 1e-10, "sum {s}");
    }

    #[test]
    fn viterbi_path_is_most_likely() {
        let h = toy();
        let obs = vec![0, 0, 1];
        let vit = h.viterbi(&obs).unwrap();
        // Enumerate all paths, check Viterbi found the argmax.
        let m = h.num_states();
        let mut best = f64::NEG_INFINITY;
        let mut best_path = vec![];
        for code in 0..m.pow(3) {
            let mut c = code;
            let path: Vec<usize> = (0..3)
                .map(|_| {
                    let s = c % m;
                    c /= m;
                    s
                })
                .collect();
            let mut p = h.initial()[path[0]] * h.observation()[(path[0], obs[0])];
            for i in 1..3 {
                p *= h.transition()[(path[i - 1], path[i])] * h.observation()[(path[i], obs[i])];
            }
            if p.ln() > best {
                best = p.ln();
                best_path = path;
            }
        }
        assert_eq!(vit.states, best_path);
        assert!((vit.log_prob - best).abs() < 1e-10);
    }

    #[test]
    fn viterbi_log_prob_below_total() {
        let h = toy();
        let obs = vec![0, 1, 1, 0];
        let vit = h.viterbi(&obs).unwrap();
        let ll = h.log_likelihood(&obs).unwrap();
        assert!(vit.log_prob <= ll + 1e-12);
    }

    #[test]
    fn impossible_sequence_detected() {
        let a = StochasticMatrix::identity(2).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let h = Hmm::new(a, b, vec![0.5, 0.5]).unwrap();
        // Symbol 1 can never be emitted.
        assert!(matches!(
            h.log_likelihood(&[0, 1]),
            Err(HmmError::ImpossibleSequence { time: 1 })
        ));
        assert!(matches!(
            h.viterbi(&[1]),
            Err(HmmError::ImpossibleSequence { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        let h = toy();
        assert_eq!(h.log_likelihood(&[]).unwrap_err(), HmmError::EmptySequence);
        assert!(matches!(
            h.log_likelihood(&[5]),
            Err(HmmError::SymbolOutOfRange { .. })
        ));
    }

    #[test]
    fn new_rejects_mismatched_dims() {
        let a = StochasticMatrix::identity(2).unwrap();
        let b = StochasticMatrix::uniform(3, 2).unwrap();
        assert!(matches!(
            Hmm::new(a.clone(), b, vec![0.5, 0.5]),
            Err(HmmError::DimensionMismatch { .. })
        ));
        let b2 = StochasticMatrix::uniform(2, 2).unwrap();
        assert!(matches!(
            Hmm::new(a.clone(), b2.clone(), vec![1.0]),
            Err(HmmError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Hmm::new(a, b2, vec![0.7, 0.7]),
            Err(HmmError::NotStochastic { .. })
        ));
    }

    #[test]
    fn sample_respects_support() {
        let h = toy();
        let mut rng = StdRng::seed_from_u64(7);
        let (states, obs) = h.sample(500, &mut rng).unwrap();
        assert_eq!(states.len(), 500);
        assert!(states.iter().all(|&s| s < 2));
        assert!(obs.iter().all(|&o| o < 2));
        // State 0 emits symbol 0 with prob 0.9 — check gross statistics.
        let zeros = states
            .iter()
            .zip(&obs)
            .filter(|&(&s, &o)| s == 0 && o == 0)
            .count() as f64;
        let s0 = states.iter().filter(|&&s| s == 0).count() as f64;
        assert!(
            (zeros / s0 - 0.9).abs() < 0.08,
            "emission freq {}",
            zeros / s0
        );
    }

    #[test]
    fn sample_zero_len_is_error() {
        let h = toy();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(h.sample(0, &mut rng).unwrap_err(), HmmError::EmptySequence);
    }

    #[test]
    fn random_model_is_valid() {
        let mut rng = StdRng::seed_from_u64(42);
        let h = Hmm::random(4, 6, &mut rng).unwrap();
        h.transition().check(1e-9).unwrap();
        h.observation().check(1e-9).unwrap();
        assert_eq!(h.num_states(), 4);
        assert_eq!(h.num_symbols(), 6);
    }

    #[test]
    fn uniform_model_likelihood_is_uniform() {
        let h = Hmm::uniform(3, 4).unwrap();
        // Under uniform B, any sequence of length T has Pr = (1/4)^T.
        let ll = h.log_likelihood(&[0, 1, 2, 3]).unwrap();
        assert!((ll - 4.0 * (0.25f64).ln()).abs() < 1e-10);
    }
}
