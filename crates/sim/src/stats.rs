//! Small statistics utilities: Gaussian sampling via Box–Muller.
//!
//! `rand_distr` is not on this project's approved dependency list, so
//! the zero-mean measurement noise `N_j` of the paper's sensor model
//! (`p_j = Θ(t) + N_j`, §3.1) is sampled with a hand-rolled, fully
//! tested Box–Muller transform.

use rand::Rng;

/// A normal distribution `N(mean, std²)` sampled via Box–Muller.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sentinet_sim::Gaussian;
///
/// let g = Gaussian::new(10.0, 2.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = g.sample(&mut rng);
/// assert!((x - 10.0).abs() < 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            std >= 0.0 && std.is_finite() && mean.is_finite(),
            "mean/std must be finite and std non-negative (got mean={mean}, std={std})"
        );
        Self { mean, std }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }
}

/// Draws a standard normal `N(0, 1)` variate via the Box–Muller
/// transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] so that ln(u1) is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Clamps `x` into the inclusive admissible range `[lo, hi]`.
///
/// The paper keeps injected values "within their admissible range, e.g.
/// [0, 100] for humidity" (§4.2); sensors and injectors both use this.
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "invalid range [{lo}, {hi}]");
    x.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_close() {
        let g = Gaussian::new(5.0, 2.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn zero_std_is_deterministic() {
        let g = Gaussian::new(3.5, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(g.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn samples_are_finite() {
        let g = Gaussian::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        assert!((0..10_000).all(|_| g.sample(&mut rng).is_finite()));
    }

    #[test]
    fn tail_mass_is_roughly_normal() {
        // ~4.55% of mass outside 2σ for a normal distribution.
        let g = Gaussian::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let outside = (0..n).filter(|_| g.sample(&mut rng).abs() > 2.0).count() as f64 / n as f64;
        assert!((outside - 0.0455).abs() < 0.005, "tail {outside}");
    }

    #[test]
    #[should_panic(expected = "std non-negative")]
    fn negative_std_panics() {
        Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn clamp_behaviour() {
        assert_eq!(clamp(-5.0, 0.0, 100.0), 0.0);
        assert_eq!(clamp(105.0, 0.0, 100.0), 100.0);
        assert_eq!(clamp(50.0, 0.0, 100.0), 50.0);
    }

    #[test]
    fn getters_roundtrip() {
        let g = Gaussian::new(1.0, 2.0);
        assert_eq!(g.mean(), 1.0);
        assert_eq!(g.std(), 2.0);
    }
}
