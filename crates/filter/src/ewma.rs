//! EWMA control chart.
//!
//! Complements k-of-n/SPRT/CUSUM as a fourth alarm-filtering option: an
//! exponentially weighted moving average of a statistic with control
//! limits `μ0 ± L·σ·sqrt(λ/(2−λ)·(1−(1−λ)^{2t}))`.

/// EWMA control chart with exact time-varying control limits.
///
/// # Examples
///
/// ```
/// use sentinet_filter::EwmaChart;
///
/// let mut chart = EwmaChart::new(0.0, 1.0, 0.2, 3.0);
/// let mut out = false;
/// for _ in 0..30 {
///     out = chart.push(2.5); // sustained 2.5σ shift
///     if out { break; }
/// }
/// assert!(out);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaChart {
    mu0: f64,
    sigma: f64,
    lambda: f64,
    l: f64,
    z: f64,
    t: u64,
}

impl EwmaChart {
    /// Creates a chart around in-control mean `mu0` and standard
    /// deviation `sigma`, with smoothing `lambda ∈ (0, 1]` and control
    /// width `l` (in σ units).
    ///
    /// # Panics
    ///
    /// Panics for non-finite inputs, `sigma <= 0`, `lambda ∉ (0, 1]`, or
    /// `l <= 0`.
    pub fn new(mu0: f64, sigma: f64, lambda: f64, l: f64) -> Self {
        assert!(
            mu0.is_finite()
                && sigma > 0.0
                && (0.0..=1.0).contains(&lambda)
                && lambda > 0.0
                && l > 0.0,
            "invalid EWMA parameters mu0={mu0}, sigma={sigma}, lambda={lambda}, L={l}"
        );
        Self {
            mu0,
            sigma,
            lambda,
            l,
            z: mu0,
            t: 0,
        }
    }

    /// Feeds one observation; returns whether the EWMA statistic is
    /// outside the control limits.
    pub fn push(&mut self, x: f64) -> bool {
        self.t += 1;
        self.z = self.lambda * x + (1.0 - self.lambda) * self.z;
        self.is_out_of_control()
    }

    /// Current EWMA statistic.
    pub fn statistic(&self) -> f64 {
        self.z
    }

    /// Current half-width of the control band.
    fn control_halfwidth(&self) -> f64 {
        let lam = self.lambda;
        let var_factor = lam / (2.0 - lam) * (1.0 - (1.0 - lam).powi(2 * self.t as i32));
        self.l * self.sigma * var_factor.sqrt()
    }

    /// Whether the statistic currently violates the limits.
    fn is_out_of_control(&self) -> bool {
        self.t > 0 && (self.z - self.mu0).abs() > self.control_halfwidth()
    }

    /// Resets the chart.
    pub fn reset(&mut self) {
        self.z = self.mu0;
        self.t = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_shift_detected() {
        let mut c = EwmaChart::new(0.0, 1.0, 0.2, 3.0);
        let mut steps = 0;
        while !c.push(2.0) {
            steps += 1;
            assert!(steps < 100, "never detected");
        }
        assert!(steps < 20, "steps {steps}");
    }

    #[test]
    fn in_control_noise_mostly_quiet() {
        use rand::{rngs::StdRng, SeedableRng};
        use sentinet_sim::Gaussian;
        let mut rng = StdRng::seed_from_u64(2);
        let g = Gaussian::new(0.0, 1.0);
        let mut c = EwmaChart::new(0.0, 1.0, 0.2, 3.0);
        let violations = (0..5_000).filter(|_| c.push(g.sample(&mut rng))).count();
        // L=3 EWMA charts have in-control ARL of hundreds of samples.
        assert!(violations < 120, "violations {violations}");
    }

    #[test]
    fn limits_grow_to_asymptote() {
        let mut c = EwmaChart::new(0.0, 1.0, 0.3, 3.0);
        c.push(0.0);
        let w1 = c.control_halfwidth();
        for _ in 0..200 {
            c.push(0.0);
        }
        let w_inf = c.control_halfwidth();
        assert!(w1 < w_inf);
        let asymptote = 3.0 * (0.3f64 / 1.7).sqrt();
        assert!((w_inf - asymptote).abs() < 1e-6);
    }

    #[test]
    fn lambda_one_is_shewhart() {
        let mut c = EwmaChart::new(0.0, 1.0, 1.0, 3.0);
        assert!(!c.push(2.9));
        assert!(c.push(3.1));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = EwmaChart::new(5.0, 1.0, 0.5, 3.0);
        c.push(50.0);
        assert!(c.is_out_of_control());
        c.reset();
        assert!(!c.is_out_of_control());
        assert_eq!(c.statistic(), 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid EWMA")]
    fn bad_lambda_panics() {
        EwmaChart::new(0.0, 1.0, 0.0, 3.0);
    }
}
