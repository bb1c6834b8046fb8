//! Pipeline configuration (paper Table 1 plus implementation knobs).

use sentinet_cluster::ClusterConfig;
use sentinet_hmm::structure::OrthoTolerance;

/// Alarm-filter policy selection for the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterPolicy {
    /// The paper's simple k-of-n filter.
    KOfN {
        /// Raw alarms required within the window.
        k: usize,
        /// Window length in pipeline steps.
        n: usize,
    },
    /// Wald SPRT on the raw-alarm rate.
    Sprt {
        /// Healthy raw-alarm probability.
        p0: f64,
        /// Faulty raw-alarm probability.
        p1: f64,
        /// Type-I error rate.
        alpha: f64,
        /// Type-II error rate.
        beta: f64,
    },
}

impl Default for FilterPolicy {
    fn default() -> Self {
        FilterPolicy::KOfN { k: 6, n: 10 }
    }
}

/// Configuration of the full detection/classification pipeline.
///
/// Defaults reproduce the paper's Table 1: `K = 10` sensors (implied by
/// the trace), `M = 6` initial model states, `w = 12` samples per
/// observation window, `α = 0.10`, `β = 0.90`, `γ = 0.90`.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Samples per observation window (`w` in Table 1).
    pub window_samples: u32,
    /// Number of initial model states (`M` in Table 1), used when
    /// `initial_states` is `None` and the pipeline bootstraps by
    /// clustering its first window.
    pub num_initial_states: usize,
    /// Explicit initial model states (e.g. from offline k-means over
    /// historical data, as in §4.1). Overrides `num_initial_states`.
    pub initial_states: Option<Vec<Vec<f64>>>,
    /// Online clustering parameters; `alpha` is Table 1's `α`.
    pub cluster: ClusterConfig,
    /// Transition-matrix learning factor: the weight of the *newest*
    /// transition in the exponential update. The paper's Table 1 lists
    /// `β = 0.90`; its published matrices (stable 0.33/0.67 and
    /// 0.35/0.65 splits) are only producible when 0.90 is read as the
    /// *retention* weight, i.e. a new-sample weight of 0.10 — which is
    /// this field's default.
    pub beta: f64,
    /// Observation-matrix learning factor (new-sample weight; see
    /// `beta` for the Table 1 interpretation).
    pub gamma: f64,
    /// Alarm filter policy.
    pub filter: FilterPolicy,
    /// Orthogonality tolerances for classification; `max_offdiag` in
    /// (0, 1).
    pub ortho: OrthoTolerance,
    /// Minimum per-row mass for the Eq. 7 stuck-at column test, in
    /// [0, 1).
    pub stuck_at_threshold: f64,
    /// Minimum per-row mass for a one-to-one association (Eq. 8), in
    /// [0, 1).
    pub association_threshold: f64,
    /// Fraction of reporting sensors the winning label must exceed for
    /// a window to be *decisive* (Eq. 4's majority assumption). The ⅔
    /// default keeps state-boundary windows — where honest sensors
    /// split across two states — from training the models with
    /// ambiguous correct states.
    pub majority_fraction: f64,
    /// Minimum occupancy for a state to appear in the user-facing
    /// Markov model `M_C` (the paper drops its (16, 27) fluctuation
    /// state this way).
    pub key_state_occupancy: f64,
    /// Trim fraction for the robust observable-state mean (Eq. 2):
    /// `0` reproduces the paper's plain mean; the default `0.15` keeps
    /// one wildly faulty sensor of ten from dragging the observable
    /// state while coordinated ⅓-attacks still shift it.
    pub observable_trim: f64,
    /// Seed for the pipeline's internal RNG (bootstrap clustering).
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            window_samples: 12,
            num_initial_states: 6,
            initial_states: None,
            cluster: ClusterConfig::default(),
            beta: 0.10,
            gamma: 0.10,
            filter: FilterPolicy::default(),
            ortho: OrthoTolerance::default(),
            stuck_at_threshold: 0.5,
            association_threshold: 0.4,
            majority_fraction: 0.65,
            key_state_occupancy: 0.02,
            observable_trim: 0.15,
            seed: 0xD51_2006,
        }
    }
}

impl PipelineConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range learning factors, thresholds, or an empty
    /// window — configs are construction-time values.
    pub fn validate(&self) {
        assert!(
            self.window_samples > 0,
            "window must hold at least one sample"
        );
        assert!(
            self.beta > 0.0 && self.beta < 1.0 && self.gamma > 0.0 && self.gamma < 1.0,
            "learning factors must be in (0, 1)"
        );
        assert!(
            self.num_initial_states > 0 || self.initial_states.is_some(),
            "need initial states"
        );
        if let Some(init) = &self.initial_states {
            assert!(
                !init.is_empty(),
                "explicit initial states must be non-empty"
            );
        }
        // A threshold of 1 leaves no room past it: its margin is 0 / 0.
        assert!(
            (0.0..1.0).contains(&self.stuck_at_threshold)
                && (0.0..1.0).contains(&self.association_threshold),
            "thresholds must be in [0, 1)"
        );
        let tol = self.ortho.max_offdiag;
        assert!(
            tol > 0.0 && tol < 1.0,
            "orthogonality tolerance must be in (0, 1)"
        );
        assert!(
            (0.5..1.0).contains(&self.majority_fraction),
            "majority fraction must be in [0.5, 1)"
        );
        assert!(
            (0.0..0.5).contains(&self.observable_trim),
            "observable trim must be in [0, 0.5)"
        );
        match &self.filter {
            FilterPolicy::KOfN { k, n } => {
                assert!(*k >= 1 && k <= n, "k-of-n requires 1 <= k <= n")
            }
            FilterPolicy::Sprt {
                p0,
                p1,
                alpha,
                beta,
            } => {
                assert!(
                    0.0 < *p0 && p0 < p1 && *p1 < 1.0,
                    "SPRT needs 0 < p0 < p1 < 1"
                );
                assert!(
                    *alpha > 0.0 && *alpha < 0.5 && *beta > 0.0 && *beta < 0.5,
                    "SPRT error rates in (0, 0.5)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table1() {
        let c = PipelineConfig::default();
        assert_eq!(c.window_samples, 12);
        assert_eq!(c.num_initial_states, 6);
        assert!((c.cluster.alpha - 0.10).abs() < 1e-12);
        // Table 1's 0.90 is the retention weight: 1 − new-sample weight.
        assert!((1.0 - c.beta - 0.90).abs() < 1e-12);
        assert!((1.0 - c.gamma - 0.90).abs() < 1e-12);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "learning factors")]
    fn bad_beta_panics() {
        let c = PipelineConfig {
            beta: 1.0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let c = PipelineConfig {
            window_samples: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "k-of-n")]
    fn bad_filter_panics() {
        let c = PipelineConfig {
            filter: FilterPolicy::KOfN { k: 5, n: 2 },
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn sprt_policy_validates() {
        let c = PipelineConfig {
            filter: FilterPolicy::Sprt {
                p0: 0.05,
                p1: 0.6,
                alpha: 0.01,
                beta: 0.01,
            },
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "thresholds must be in [0, 1)")]
    fn a_stuck_at_threshold_of_one_panics() {
        let c = PipelineConfig {
            stuck_at_threshold: 1.0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "thresholds must be in [0, 1)")]
    fn an_association_threshold_of_one_panics() {
        let c = PipelineConfig {
            association_threshold: 1.0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "orthogonality tolerance must be in (0, 1)")]
    fn a_zero_orthogonality_tolerance_panics() {
        let mut c = PipelineConfig::default();
        c.ortho.max_offdiag = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "orthogonality tolerance must be in (0, 1)")]
    fn an_orthogonality_tolerance_of_one_panics() {
        let mut c = PipelineConfig::default();
        c.ortho.max_offdiag = 1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "explicit initial states")]
    fn empty_explicit_states_panics() {
        let c = PipelineConfig {
            initial_states: Some(vec![]),
            ..Default::default()
        };
        c.validate();
    }
}
