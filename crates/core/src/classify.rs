//! Error-versus-attack classification (paper §3.4, Fig. 5).
//!
//! The classifier never looks at raw readings: it inspects the
//! *structure* of the observation matrices of the two HMMs.
//!
//! ```text
//! malfunction detected (filtered alarm on sensor j)
//! ├─ B^CO rows ⊥ AND columns ⊥ ?
//! │   ├─ no → ATTACK:
//! │   │   ├─ only column pairs non-⊥ → Dynamic Creation
//! │   │   ├─ only row pairs non-⊥    → Dynamic Deletion
//! │   │   └─ both                    → Mixed
//! │   └─ yes →
//! │       ├─ correct↔observable association non-identity,
//! │       │  attributes differ on every dimension → Dynamic Change
//! │       └─ identity → ERROR — inspect sensor j's B^CE (⊥ dropped):
//! │           ├─ single dominant column (Eq. 7)  → Stuck-at(state)
//! │           ├─ one-to-one association (Eq. 8):
//! │           │   ├─ ratio  x^c/x^e const per dim → Calibration
//! │           │   ├─ diff   x^c−x^e const per dim → Additive
//! │           │   └─ attrs all differ, 1-1        → Dynamic Change
//! │           └─ otherwise                        → Unknown
//! ```
//!
//! Every verdict comes with its confidence, taken at the leaf that
//! decided it: the distance between the deciding statistic and its
//! threshold, normalized into `[0, 1]`. A verdict whose statistic
//! barely cleared its threshold deserves less trust than one far past
//! it.

use crate::config::PipelineConfig;
use crate::runtime::BOT_SYMBOL;
use sentinet_hmm::structure::{
    mean_var, one_to_one_association, stuck_at_column, MeanVar, OrthogonalityReport,
};
use sentinet_hmm::{OnlineHmmEstimator, StochasticMatrix};
use std::fmt;

/// Minimum observable-symbol mass a hidden state must spread onto an
/// unclaimed column before it counts as a Dynamic Creation signature.
/// Below this, stray mass is indistinguishable from one or two windows
/// of estimation noise.
pub const CREATION_SPREAD_FLOOR: f64 = 0.15;

/// The specific accidental-error type (paper §3.3 fault model).
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorType {
    /// Sensor constantly reports one model state (the stuck state's
    /// slot index is attached).
    StuckAt {
        /// Model-state slot the sensor is stuck reporting.
        state: usize,
    },
    /// Multiplicative mis-calibration; per-attribute estimated gains
    /// `x^c / x^e` inverted to `x^e / x^c` for readability.
    Calibration {
        /// Estimated per-attribute gain of the faulty sensor.
        gains: Vec<f64>,
    },
    /// Additive offset; per-attribute estimated offsets `x^e − x^c`.
    Additive {
        /// Estimated per-attribute offset of the faulty sensor.
        offsets: Vec<f64>,
    },
    /// Anomalous but matching no known model (the paper's Unknown
    /// Error; random-noise faults usually land here or go undetected).
    Unknown,
}

/// The specific attack type (paper §3.3 attack model).
#[derive(Debug, Clone, PartialEq)]
pub enum AttackType {
    /// The adversary fabricated spurious environment state(s): the
    /// observable-state columns that absorb mass from a shared hidden
    /// state are attached.
    DynamicCreation {
        /// Observable states involved in the creation signature.
        created: Vec<usize>,
    },
    /// The adversary suppressed environment state(s): the hidden-state
    /// rows that collapse onto a shared observable state are attached.
    DynamicDeletion {
        /// Hidden states involved in the deletion signature.
        deleted: Vec<usize>,
    },
    /// The adversary remapped state attributes without changing the
    /// temporal structure; the non-identity hidden→observable pairs are
    /// attached.
    DynamicChange {
        /// `(correct state, observable state)` pairs, all non-identity.
        pairs: Vec<(usize, usize)>,
    },
    /// Creation and deletion signatures present simultaneously.
    Mixed,
}

/// Overall diagnosis for one sensor.
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnosis {
    /// No filtered alarm was ever raised for the sensor.
    ErrorFree,
    /// Accidental error of the given type.
    Error(ErrorType),
    /// Malicious attack of the given type.
    Attack(AttackType),
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnosis::ErrorFree => write!(f, "error/attack-free"),
            Diagnosis::Error(ErrorType::StuckAt { state }) => {
                write!(f, "error: stuck-at state {state}")
            }
            Diagnosis::Error(ErrorType::Calibration { gains }) => {
                write!(f, "error: calibration, gains {gains:?}")
            }
            Diagnosis::Error(ErrorType::Additive { offsets }) => {
                write!(f, "error: additive, offsets {offsets:?}")
            }
            Diagnosis::Error(ErrorType::Unknown) => write!(f, "error: unknown type"),
            Diagnosis::Attack(AttackType::DynamicCreation { created }) => {
                write!(f, "attack: dynamic creation of states {created:?}")
            }
            Diagnosis::Attack(AttackType::DynamicDeletion { deleted }) => {
                write!(f, "attack: dynamic deletion of states {deleted:?}")
            }
            Diagnosis::Attack(AttackType::DynamicChange { pairs }) => {
                write!(f, "attack: dynamic change over pairs {pairs:?}")
            }
            Diagnosis::Attack(AttackType::Mixed) => write!(f, "attack: mixed"),
        }
    }
}

/// Everything the classifier needs about the network-level model
/// `M_CO`, computed once per model generation.
#[derive(Debug, Clone)]
pub struct NetworkEvidence<'a> {
    /// `B^CO`: observation matrix of the network HMM.
    pub b_co: &'a StochasticMatrix,
    /// Orthogonality of `B^CO` over `active_rows`.
    pub report: &'a OrthogonalityReport,
    /// Hidden-state rows of `B^CO` with enough evidence to analyze.
    pub active_rows: &'a [usize],
    /// Current model-state centroids by slot (inactive slots `None`).
    pub centroids: &'a [Option<Vec<f64>>],
}

/// Per-sensor evidence: the sensor's `M_CE` observation matrix.
#[derive(Debug, Clone)]
pub struct SensorEvidence<'a> {
    /// `B^CE` for the sensor, *including* the ⊥ column at index 0.
    pub b_ce: &'a StochasticMatrix,
    /// Hidden-state rows of `B^CE` with enough evidence.
    pub active_rows: &'a [usize],
}

/// The hidden-state rows of `estimator`'s **B** with at least
/// `min_evidence` updates: an identity-prior row nothing has updated
/// would otherwise pass every structural test as perfect.
pub fn evidenced_rows(
    estimator: &OnlineHmmEstimator,
    min_evidence: u64,
) -> impl Iterator<Item = usize> + '_ {
    let evidence = estimator.observation_evidence().iter().enumerate();
    evidence
        .filter(move |&(_, &count)| count >= min_evidence)
        .map(|(i, _)| i)
}

/// Whether row `i` of a `B^CE` carries error signal: at most half of
/// its mass sits on ⊥. A ⊥-dominated row describes windows where the
/// tracked sensor *agreed* with the correct state, and renormalizing
/// its residue would fabricate a signature.
pub fn carries_error(b_ce: &StochasticMatrix, i: usize) -> bool {
    b_ce[(i, BOT_SYMBOL)] <= 0.5
}

/// Clamps a raw margin ratio into `[0, 1]`.
fn unit(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Classifies the network-level matrix: is an attack reshaping the
/// hidden↔observable correspondence?
///
/// Returns the attack with its confidence when `B^CO` carries an attack
/// signature, `None` when it is structurally clean (the error path
/// applies).
pub fn classify_network(
    evidence: &NetworkEvidence<'_>,
    config: &PipelineConfig,
) -> Option<(AttackType, f64)> {
    // Each active hidden row is summarized by its *substantial*
    // emissions (mass ≥ the spread floor). Hidden states and observable
    // symbols share the model-state space, so three shapes arise:
    //
    // - row emits only its own column           → clean;
    // - row emits exactly one foreign column    → change-pair candidate
    //   (the adversary remapped the state's attributes);
    // - row splits over ≥ 2 substantial columns → the foreign,
    //   *unclaimed* ones (states never serving as correct states — the
    //   paper's Table 7 state (25, 69) is exactly such a column) are
    //   fabricated: Dynamic Creation. Splits onto columns claimed by
    //   other hidden states are boundary/deletion artifacts, which the
    //   row-pair orthogonality test catches instead.
    let b = evidence.b_co;
    let claimed = evidence.active_rows;
    let mut created: Vec<usize> = Vec::new();
    let mut change_pairs: Vec<(usize, usize)> = Vec::new();
    for &r in claimed {
        let substantial: Vec<usize> = b
            .row(r)
            .iter()
            .enumerate()
            .filter(|(_, &m)| m >= CREATION_SPREAD_FLOOR)
            .map(|(c, _)| c)
            .collect();
        match substantial.as_slice() {
            [only] if *only == r => {}
            [only] => change_pairs.push((r, *only)),
            many => {
                for &col in many {
                    if col != r && !claimed.contains(&col) {
                        created.push(col);
                    }
                }
            }
        }
    }
    created.sort_unstable();
    created.dedup();
    let violations = &evidence.report.row_violations;
    // A deletion is as strong as the largest shared row-Gram mass past
    // the orthogonality tolerance.
    let tol = config.ortho.max_offdiag;
    let deletion_margin = || {
        let margins = violations
            .iter()
            .map(|v| unit((v.mass - tol) / (1.0 - tol)));
        margins.fold(0.0, f64::max)
    };
    match (!created.is_empty(), !violations.is_empty()) {
        (true, true) => Some((AttackType::Mixed, deletion_margin())),
        (true, false) => {
            // A creation is as strong as the largest mass any active row
            // places on a created column.
            let masses = claimed
                .iter()
                .flat_map(|&r| created.iter().map(move |&c| b[(r, c)]));
            let confidence = unit(masses.fold(0.0, f64::max));
            Some((AttackType::DynamicCreation { created }, confidence))
        }
        (false, true) => {
            let mut deleted: Vec<usize> = violations
                .iter()
                .flat_map(|v| [v.first, v.second])
                .collect();
            deleted.sort_unstable();
            deleted.dedup();
            Some((AttackType::DynamicDeletion { deleted }, deletion_margin()))
        }
        (false, false) => {
            // Dynamic Change: one-to-one non-identity remapping whose
            // state attributes differ in every dimension (the paper's
            // ∀i: x_i^c ≠ x_i^o condition).
            let all_dims_differ = change_pairs.iter().all(|&(c, o)| {
                match (&evidence.centroids[c], &evidence.centroids[o]) {
                    (Some(cc), Some(oc)) => {
                        cc.iter().zip(oc).all(|(a, b)| (a - b).abs() > f64::EPSILON)
                    }
                    _ => false,
                }
            });
            if change_pairs.is_empty() || !all_dims_differ {
                return None;
            }
            // A change is as strong as its weakest remapped association.
            let masses = change_pairs.iter().map(|&(c, o)| b[(c, o)]);
            let confidence = masses.fold(1.0, f64::min);
            let change = AttackType::DynamicChange {
                pairs: change_pairs,
            };
            Some((change, confidence))
        }
    }
}

/// The confidence a structurally clean `B^CO` lends an `ErrorFree`
/// verdict before [`matured`]: how far the largest active off-diagonal
/// row-Gram entry sits below the orthogonality tolerance, or zero when
/// the matrix is not orthogonal.
pub(crate) fn clean_margin(evidence: &NetworkEvidence<'_>, config: &PipelineConfig) -> f64 {
    let rows = evidence.active_rows;
    if rows.is_empty() || !evidence.report.is_orthogonal() {
        return 0.0;
    }
    let g = evidence.b_co.row_gram();
    let mut max_off: f64 = 0.0;
    for &i in rows {
        for &j in rows.iter().filter(|&&j| j > i) {
            max_off = max_off.max(g[i][j]);
        }
    }
    let tol = config.ortho.max_offdiag;
    unit((tol - max_off) / tol)
}

/// An `ErrorFree` verdict's confidence: the [`clean_margin`], damped
/// while the pipeline has processed fewer than 48 windows.
pub(crate) fn matured(clean_margin: f64, windows_processed: u64) -> f64 {
    clean_margin * unit(windows_processed as f64 / 48.0)
}

/// Classifies one sensor's error type from its `M_CE` evidence, given
/// that the network-level matrix showed no attack signature; returns
/// the error with its confidence.
pub fn classify_sensor(
    network: &NetworkEvidence<'_>,
    sensor: &SensorEvidence<'_>,
    config: &PipelineConfig,
) -> (ErrorType, f64) {
    const UNKNOWN: (ErrorType, f64) = (ErrorType::Unknown, 0.0);
    // Drop the ⊥ column (index 0) as the paper prescribes: column k of
    // what remains is model-state slot k. Rows ⊥ dominates sit the
    // analysis out along with the ⊥ column itself (see [`carries_error`]).
    let Ok(b) = sensor.b_ce.drop_columns(&[0]) else {
        return UNKNOWN;
    };
    let rows: Vec<usize> = sensor
        .active_rows
        .iter()
        .copied()
        .filter(|&i| carries_error(sensor.b_ce, i))
        .collect();

    // Eq. 7: stuck-at — one column dominates every active row, as
    // strongly as the weakest row's mass on it clears the threshold.
    let thr = config.stuck_at_threshold;
    if let Some(state) = stuck_at_column(&b, thr, Some(&rows)) {
        let weakest = rows.iter().map(|&i| b[(i, state)]).fold(1.0, f64::min);
        return (
            ErrorType::StuckAt { state },
            unit((weakest - thr) / (1.0 - thr)),
        );
    }

    // Eq. 8: one-to-one correct↔error association.
    let Some(assoc) = one_to_one_association(&b, config.association_threshold, Some(&rows)) else {
        return UNKNOWN;
    };

    // Resolve centroids: hidden row i ↔ slot i; error column k ↔ slot k
    // (the ⊥ drop re-aligned columns with slots).
    let pairs: Vec<(&[f64], &[f64])> = assoc
        .iter()
        .filter_map(
            |&(c, e)| match (&network.centroids.get(c), &network.centroids.get(e)) {
                (Some(Some(cc)), Some(Some(ec))) => Some((cc.as_slice(), ec.as_slice())),
                _ => None,
            },
        )
        .collect();
    let min_pairs = config.min_association_pairs;
    if pairs.len() < min_pairs {
        return UNKNOWN;
    }
    let dims = pairs[0].0.len();
    let cv = config.constancy_cv;

    // Ratio constancy (per attribute): x^c / x^e ≈ const ⇒ calibration.
    let ratio_stats: Option<Vec<MeanVar>> = (0..dims)
        .map(|d| {
            let ratios: Vec<f64> = pairs
                .iter()
                .filter(|(_, e)| e[d].abs() > 1e-9)
                .map(|(c, e)| c[d] / e[d])
                .collect();
            mean_var(&ratios).filter(|_| ratios.len() >= min_pairs)
        })
        .collect();
    let ratio_stats = ratio_stats.filter(|stats| {
        stats
            .iter()
            .all(|mv| mv.var.sqrt() <= cv * mv.mean.abs().max(1e-9))
    });
    // Difference constancy: x^c − x^e ≈ const ⇒ additive. The spread
    // is judged relative to max(|mean|, state spacing): an attribute
    // the fault leaves untouched has a ≈ 0 mean difference, and its
    // centroid-estimation noise must not fail the test.
    let diff_scale = config.cluster.spawn_threshold.max(1.0);
    let diff_stats: Vec<MeanVar> = (0..dims)
        .map(|d| {
            let diffs: Vec<f64> = pairs.iter().map(|(c, e)| c[d] - e[d]).collect();
            // sentinet-allow(expect-used): windows handed to mean_var are non-empty by construction
            mean_var(&diffs).expect("non-empty")
        })
        .collect();
    let diff_const = diff_stats
        .iter()
        .all(|mv| mv.var.sqrt() <= cv * mv.mean.abs().max(diff_scale));

    // When both tests pass (e.g. a pure shift over nearly collinear
    // states), prefer the model with the tighter relative spread on its
    // worst attribute — the paper's comparison of the two variances.
    // When neither passes, the paper re-checks for a Dynamic Change
    // attack; the network level already excluded one, so a sensor
    // matching no known error shape is Unknown.
    let calibration = match (&ratio_stats, diff_const) {
        (None, false) => return UNKNOWN,
        (None, true) => false,
        (Some(_), false) => true,
        (Some(ratio), true) => max_cv(ratio) <= max_cv(&diff_stats),
    };
    // Either verdict is as strong as the weakest associated row's mass
    // past the threshold, scaled by the evidence breadth (pairs beyond
    // the minimum).
    let thr = config.association_threshold;
    let weakest = assoc.iter().map(|&(i, k)| b[(i, k)]).fold(1.0, f64::min);
    let breadth = unit((assoc.len() as f64 - min_pairs as f64 + 1.0) / (min_pairs as f64 + 1.0));
    let confidence = unit((weakest - thr) / (1.0 - thr)) * (0.5 + 0.5 * breadth);
    let error = if calibration {
        ErrorType::Calibration {
            gains: estimate_gains(&pairs, dims),
        }
    } else {
        ErrorType::Additive {
            offsets: diff_stats.iter().map(|mv| -mv.mean).collect(),
        }
    };
    (error, confidence)
}

fn estimate_gains(pairs: &[(&[f64], &[f64])], dims: usize) -> Vec<f64> {
    // Gain of the faulty sensor = x^e / x^c averaged over pairs.
    (0..dims)
        .map(|d| {
            let gains: Vec<f64> = pairs
                .iter()
                .filter(|(c, _)| c[d].abs() > 1e-9)
                .map(|(c, e)| e[d] / c[d])
                .collect();
            if gains.is_empty() {
                1.0
            } else {
                gains.iter().sum::<f64>() / gains.len() as f64
            }
        })
        .collect()
}

/// The largest relative spread `σ / max(|μ|, 1)` over the attributes.
fn max_cv(stats: &[MeanVar]) -> f64 {
    stats
        .iter()
        .map(|mv| mv.var.sqrt() / mv.mean.abs().max(1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{GlobalModel, SensorRuntime};

    fn cfg() -> PipelineConfig {
        PipelineConfig::default()
    }

    fn centroids() -> Vec<Option<Vec<f64>>> {
        vec![
            Some(vec![12.0, 94.0]),
            Some(vec![17.0, 84.0]),
            Some(vec![24.0, 70.0]),
            Some(vec![31.0, 56.0]),
            Some(vec![15.0, 1.0]),
        ]
    }

    fn identity_b(n: usize) -> StochasticMatrix {
        StochasticMatrix::identity(n).unwrap()
    }

    fn bce(rows: Vec<Vec<f64>>) -> StochasticMatrix {
        StochasticMatrix::from_rows(rows).unwrap()
    }

    /// Runs `f` on the network evidence of `b` over `rows`.
    fn with_net<R>(
        b: &StochasticMatrix,
        rows: &[usize],
        centroids: &[Option<Vec<f64>>],
        f: impl FnOnce(&NetworkEvidence<'_>) -> R,
    ) -> R {
        let report = OrthogonalityReport::analyze(b, cfg().ortho, Some(rows));
        f(&NetworkEvidence {
            b_co: b,
            report: &report,
            active_rows: rows,
            centroids,
        })
    }

    fn network(b: &StochasticMatrix, rows: &[usize]) -> Option<(AttackType, f64)> {
        with_net(b, rows, &centroids(), |ev| classify_network(ev, &cfg()))
    }

    fn verdict(b: &StochasticMatrix) -> Option<AttackType> {
        network(b, &[0, 1, 2, 3]).map(|(attack, _)| attack)
    }

    /// The sensor walk on `b_ce` over `rows`, against an identity
    /// `B^CO` with `centroids`.
    fn sensor(
        b_ce: &StochasticMatrix,
        rows: &[usize],
        centroids: &[Option<Vec<f64>>],
    ) -> (ErrorType, f64) {
        let b_co = identity_b(centroids.len());
        let active: Vec<usize> = (0..centroids.len()).collect();
        let ev = SensorEvidence {
            b_ce,
            active_rows: rows,
        };
        with_net(&b_co, &active, centroids, |net| {
            classify_sensor(net, &ev, &cfg())
        })
    }

    fn identity_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect()
    }

    #[test]
    fn clean_network_classifies_none() {
        assert_eq!(verdict(&identity_b(5)), None);
    }

    #[test]
    fn creation_signature() {
        // Hidden state 0 splits over observables 0 and 4.
        let b = StochasticMatrix::from_rows(vec![
            vec![0.35, 0.0, 0.0, 0.0, 0.65],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        match verdict(&b) {
            Some(AttackType::DynamicCreation { created }) => {
                // Only the fabricated state (col 4) is reported; col 0
                // is hidden state 0's own (claimed) emission.
                assert_eq!(created, vec![4]);
            }
            other => panic!("expected creation, got {other:?}"),
        }
    }

    #[test]
    fn creation_floor_is_inclusive() {
        // Exactly the floor on an unclaimed column is a creation; a
        // hair below it is one row's estimation noise.
        let spread = |mass: f64| {
            let mut rows = identity_rows(5);
            rows[0] = vec![1.0 - mass, 0.0, 0.0, 0.0, mass];
            StochasticMatrix::from_rows(rows).unwrap()
        };
        assert_eq!(
            verdict(&spread(CREATION_SPREAD_FLOOR)),
            Some(AttackType::DynamicCreation { created: vec![4] })
        );
        assert_eq!(verdict(&spread(CREATION_SPREAD_FLOOR - 1e-9)), None);
    }

    #[test]
    fn deletion_signature() {
        // Hidden states 2 and 3 both emit observable 2.
        let b = StochasticMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.999, 0.001, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        match verdict(&b) {
            Some(AttackType::DynamicDeletion { deleted }) => {
                assert_eq!(deleted, vec![2, 3])
            }
            other => panic!("expected deletion, got {other:?}"),
        }
    }

    #[test]
    fn mixed_signature() {
        let b = StochasticMatrix::from_rows(vec![
            vec![0.4, 0.0, 0.0, 0.0, 0.6], // creation: row splits
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0], // deletion: shares col 1
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert_eq!(verdict(&b), Some(AttackType::Mixed));
    }

    #[test]
    fn change_signature() {
        // Orthogonal but permuted: state 2 observed as 3, 3 as 2.
        let b = StochasticMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        match verdict(&b) {
            Some(AttackType::DynamicChange { pairs }) => {
                assert_eq!(pairs, vec![(2, 3), (3, 2)])
            }
            other => panic!("expected change, got {other:?}"),
        }
    }

    #[test]
    fn hard_deletion_is_high_confidence() {
        let b = StochasticMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0], // both states emit col 0
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let (attack, c) = network(&b, &[0, 1, 2]).unwrap();
        let deleted = vec![0, 1];
        assert_eq!(attack, AttackType::DynamicDeletion { deleted });
        assert!(c > 0.95, "confidence {c}");
    }

    #[test]
    fn marginal_deletion_is_low_confidence() {
        let b = StochasticMatrix::from_rows(vec![
            vec![0.75, 0.25, 0.0],
            vec![0.9, 0.1, 0.0], // shared mass 0.7 — just over tolerance
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let (attack, c) = network(&b, &[0, 1, 2]).unwrap();
        let deleted = vec![0, 1];
        assert_eq!(attack, AttackType::DynamicDeletion { deleted });
        let hard = 0.95;
        assert!(c < hard, "marginal case must score below hard case: {c}");
    }

    #[test]
    fn clean_confidence_needs_maturity_and_orthogonality() {
        let margin = with_net(&identity_b(3), &[0, 1, 2], &centroids(), |ev| {
            clean_margin(ev, &cfg())
        });
        let young = matured(margin, 2);
        let mature = matured(margin, 200);
        assert!(mature > 0.9, "{mature}");
        assert!(young < 0.1, "{young}");
        // Non-orthogonal matrix: zero clean confidence.
        let bad = StochasticMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let margin = with_net(&bad, &[0, 1], &centroids(), |ev| clean_margin(ev, &cfg()));
        assert_eq!(matured(margin, 200), 0.0);
    }

    #[test]
    fn unalarmed_sensor_is_error_free() {
        let config = PipelineConfig {
            initial_states: Some(centroids().into_iter().flatten().collect()),
            ..cfg()
        };
        let global = GlobalModel::new(config.clone());
        let runtime = SensorRuntime::new(&config, 5);
        assert_eq!(global.classify(Some(&runtime)), Diagnosis::ErrorFree);
    }

    #[test]
    fn stuck_at_classification_matches_paper_table3() {
        // Columns: [⊥, slot0, slot1, slot2, slot3, slot4]; all mass on
        // slot 4 = the (15, 1) stuck state (paper Table 3 shape).
        let b = bce(vec![
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.1, 0.0, 0.0, 0.0, 0.0, 0.9],
            vec![0.0, 0.0, 0.0, 0.33, 0.0, 0.67],
            vec![0.0, 0.01, 0.0, 0.0, 0.0, 0.99],
        ]);
        assert_eq!(
            sensor(&b, &[0, 1, 2, 3, 4], &centroids()).0,
            ErrorType::StuckAt { state: 4 }
        );
    }

    #[test]
    fn stuck_at_confidence_tracks_column_mass() {
        let strong = bce(vec![vec![0.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]]);
        let weak = bce(vec![vec![0.0, 0.4, 0.6], vec![0.0, 0.45, 0.55]]);
        let stuck = ErrorType::StuckAt { state: 1 };
        let (verdict, c_strong) = sensor(&strong, &[0, 1], &centroids());
        assert_eq!(verdict, stuck);
        let (verdict, c_weak) = sensor(&weak, &[0, 1], &centroids());
        assert_eq!(verdict, stuck);
        assert!(c_strong > 0.9, "{c_strong}");
        assert!(c_weak < c_strong, "{c_weak} vs {c_strong}");
    }

    /// A `B^CE` where hidden state k reports state k+1 and the top
    /// state maps to ⊥ (agrees).
    fn shifted_by_one() -> StochasticMatrix {
        bce(vec![
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
        ])
    }

    /// Four centroids `(x, 2x)`.
    fn on_a_line(xs: [f64; 4]) -> Vec<Option<Vec<f64>>> {
        xs.into_iter().map(|x| Some(vec![x, 2.0 * x])).collect()
    }

    #[test]
    fn calibration_classification() {
        // Centroids on a ray: state k ≈ 1.2 × state k−1 per attribute.
        let cents = vec![
            Some(vec![10.0, 50.0]),
            Some(vec![12.0, 60.0]),
            Some(vec![14.4, 72.0]),
            Some(vec![17.28, 86.4]),
        ];
        // Sensor reports state k+1 whenever the environment is in state
        // k: constant ratio x^c/x^e = 1/1.2.
        match sensor(&shifted_by_one(), &[0, 1, 2], &cents).0 {
            ErrorType::Calibration { gains } => {
                assert!((gains[0] - 1.2).abs() < 1e-9, "gains {gains:?}");
            }
            other => panic!("expected calibration, got {other:?}"),
        }
    }

    #[test]
    fn additive_classification() {
        // States spaced unevenly; sensor reports state k+1 where the
        // *difference* is constant (+5, +25) but the ratio varies a lot.
        let cents = vec![
            Some(vec![5.0, 20.0]),
            Some(vec![10.0, 45.0]),
            Some(vec![15.0, 70.0]),
            Some(vec![20.0, 95.0]),
        ];
        match sensor(&shifted_by_one(), &[0, 1, 2], &cents).0 {
            ErrorType::Additive { offsets } => {
                assert!((offsets[0] - 5.0).abs() < 1e-9, "offsets {offsets:?}");
                assert!((offsets[1] - 25.0).abs() < 1e-9, "offsets {offsets:?}");
            }
            other => panic!("expected additive, got {other:?}"),
        }
    }

    #[test]
    fn both_constant_goes_to_calibration_when_ratios_are_tighter() {
        // A ×1.01 ray: ratios constant to rounding, differences spread
        // by 1 % yet within the constancy bound.
        let cents = on_a_line([100.0, 101.0, 102.01, 103.0301]);
        match sensor(&shifted_by_one(), &[0, 1, 2], &cents).0 {
            ErrorType::Calibration { .. } => {}
            other => panic!("expected calibration, got {other:?}"),
        }
    }

    #[test]
    fn both_constant_goes_to_additive_when_differences_are_tighter() {
        // A +1 step far from the origin: differences exactly constant,
        // ratios spread by ≈ 1e-4 yet within the constancy bound.
        let cents = on_a_line([100.0, 101.0, 102.0, 103.0]);
        match sensor(&shifted_by_one(), &[0, 1, 2], &cents).0 {
            ErrorType::Additive { .. } => {}
            other => panic!("expected additive, got {other:?}"),
        }
    }

    #[test]
    fn scattered_bce_is_unknown() {
        // Every hidden state scatters over many error states: no stuck
        // column, no one-to-one map.
        let b = bce(vec![
            vec![0.1, 0.3, 0.2, 0.2, 0.2],
            vec![0.1, 0.2, 0.3, 0.2, 0.2],
            vec![0.1, 0.2, 0.2, 0.3, 0.2],
            vec![0.1, 0.2, 0.2, 0.2, 0.3],
        ]);
        let cents = &centroids()[..4];
        assert_eq!(sensor(&b, &[0, 1, 2, 3], cents).0, ErrorType::Unknown);
    }

    #[test]
    fn unknown_is_zero_confidence() {
        // After the ⊥ drop every row is uniform: nothing dominates.
        let b = StochasticMatrix::uniform(2, 4).unwrap();
        let (verdict, c) = sensor(&b, &[0, 1], &centroids());
        assert_eq!(verdict, ErrorType::Unknown);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn single_active_row_is_stuck_at() {
        // With one active hidden state, a single dominant column is by
        // definition the stuck-at signature (Eq. 7 holds trivially).
        let b = bce(vec![
            vec![0.0, 0.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ]);
        assert_eq!(
            sensor(&b, &[0], &centroids()[..3]).0,
            ErrorType::StuckAt { state: 1 }
        );
    }

    #[test]
    fn diagnosis_display() {
        assert_eq!(Diagnosis::ErrorFree.to_string(), "error/attack-free");
        assert!(Diagnosis::Error(ErrorType::StuckAt { state: 4 })
            .to_string()
            .contains("stuck-at state 4"));
        assert!(Diagnosis::Attack(AttackType::Mixed)
            .to_string()
            .contains("mixed"));
    }
}
