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

use crate::config::PipelineConfig;
use sentinet_hmm::structure::{
    mean_var, one_to_one_association, stuck_at_column, OrthogonalityReport,
};

/// Minimum observable-symbol mass a hidden state must spread onto an
/// unclaimed column before it counts as a Dynamic Creation signature.
/// Below this, stray mass is indistinguishable from one or two windows
/// of estimation noise.
pub const CREATION_SPREAD_FLOOR: f64 = 0.15;
use sentinet_hmm::StochasticMatrix;
use std::fmt;

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
/// `M_CO`, precomputed once per classification round.
#[derive(Debug, Clone)]
pub struct NetworkEvidence<'a> {
    /// `B^CO`: observation matrix of the network HMM.
    pub b_co: &'a StochasticMatrix,
    /// Hidden-state rows of `B^CO` with enough evidence to analyze.
    pub active_rows: Vec<usize>,
    /// Current model-state centroids by slot (inactive slots `None`).
    pub centroids: Vec<Option<Vec<f64>>>,
}

/// Per-sensor evidence: the sensor's `M_CE` observation matrix.
#[derive(Debug, Clone)]
pub struct SensorEvidence<'a> {
    /// `B^CE` for the sensor, *including* the ⊥ column at index 0.
    pub b_ce: &'a StochasticMatrix,
    /// Hidden-state rows of `B^CE` with enough evidence.
    pub active_rows: Vec<usize>,
    /// Whether a filtered alarm was ever raised for the sensor.
    pub alarmed: bool,
}

/// Classifies the network-level matrix: is an attack reshaping the
/// hidden↔observable correspondence?
///
/// Returns `Some(attack)` when `B^CO` carries an attack signature,
/// `None` when it is structurally clean (error path applies).
pub fn classify_network(
    evidence: &NetworkEvidence<'_>,
    config: &PipelineConfig,
) -> Option<AttackType> {
    let report =
        OrthogonalityReport::analyze(evidence.b_co, config.ortho, Some(&evidence.active_rows));
    classify_network_with_report(evidence, &report, config)
}

/// [`classify_network`] with a precomputed orthogonality report for
/// `evidence.b_co` (restricted to `evidence.active_rows`). Callers that
/// memoize the report — it only changes when `M_CO` does — skip the
/// `O(m²·n)` Gram analysis on repeated classification queries.
pub fn classify_network_with_report(
    evidence: &NetworkEvidence<'_>,
    report: &OrthogonalityReport,
    _config: &PipelineConfig,
) -> Option<AttackType> {
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
    let claimed: &[usize] = &evidence.active_rows;
    let mut created: Vec<usize> = Vec::new();
    let mut change_pairs: Vec<(usize, usize)> = Vec::new();
    for &r in &evidence.active_rows {
        let substantial: Vec<usize> = evidence
            .b_co
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
    let creation = !created.is_empty();
    let deletion = !report.row_violations.is_empty();
    match (creation, deletion) {
        (true, true) => Some(AttackType::Mixed),
        (true, false) => Some(AttackType::DynamicCreation { created }),
        (false, true) => {
            let mut deleted: Vec<usize> = report
                .row_violations
                .iter()
                .flat_map(|v| [v.first, v.second])
                .collect();
            deleted.sort_unstable();
            deleted.dedup();
            Some(AttackType::DynamicDeletion { deleted })
        }
        (false, false) => {
            if change_pairs.is_empty() {
                return None;
            }
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
            if all_dims_differ {
                Some(AttackType::DynamicChange {
                    pairs: change_pairs,
                })
            } else {
                None
            }
        }
    }
}

/// Classifies one sensor's error type from its `M_CE` evidence, given
/// that the network-level matrix showed no attack signature.
pub fn classify_sensor(
    network: &NetworkEvidence<'_>,
    sensor: &SensorEvidence<'_>,
    config: &PipelineConfig,
) -> Diagnosis {
    if !sensor.alarmed {
        return Diagnosis::ErrorFree;
    }
    // Drop the ⊥ column (index 0) as the paper prescribes; remaining
    // column k corresponds to model-state slot k − 1 ... after dropping,
    // column indices shift down by one. Rows whose mass sits mostly on
    // ⊥ describe windows where the tracked sensor *agreed* with the
    // correct state — they carry no error signal, and renormalizing
    // their residue would fabricate one, so they are excluded from the
    // analysis along with the ⊥ column itself.
    let b = match sensor.b_ce.drop_columns(&[0]) {
        Ok(b) => b,
        Err(_) => return Diagnosis::Error(ErrorType::Unknown),
    };
    let active: Vec<usize> = sensor
        .active_rows
        .iter()
        .copied()
        .filter(|&i| sensor.b_ce[(i, 0)] <= 0.5)
        .collect();
    let sensor = SensorEvidence {
        b_ce: sensor.b_ce,
        active_rows: active,
        alarmed: sensor.alarmed,
    };
    let sensor = &sensor;

    // Eq. 7: stuck-at — one column dominates every active row.
    if let Some(col) = stuck_at_column(&b, config.stuck_at_threshold, Some(&sensor.active_rows)) {
        return Diagnosis::Error(ErrorType::StuckAt { state: col });
    }

    // Eq. 8: one-to-one correct↔error association.
    let assoc =
        match one_to_one_association(&b, config.association_threshold, Some(&sensor.active_rows)) {
            Some(a) => a,
            None => return Diagnosis::Error(ErrorType::Unknown),
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
    if pairs.len() < config.min_association_pairs {
        return Diagnosis::Error(ErrorType::Unknown);
    }
    let dims = pairs[0].0.len();

    // Ratio constancy (per attribute): x^c / x^e ≈ const ⇒ calibration.
    let ratio_const = (0..dims).all(|d| {
        let ratios: Vec<f64> = pairs
            .iter()
            .filter(|(_, e)| e[d].abs() > 1e-9)
            .map(|(c, e)| c[d] / e[d])
            .collect();
        if ratios.len() < config.min_association_pairs {
            return false;
        }
        // sentinet-allow(expect-used): windows handed to mean_var are non-empty by construction
        let mv = mean_var(&ratios).expect("non-empty");
        mv.var.sqrt() <= config.constancy_cv * mv.mean.abs().max(1e-9)
    });
    // Difference constancy: x^c − x^e ≈ const ⇒ additive. The spread
    // is judged relative to max(|mean|, state spacing): an attribute
    // the fault leaves untouched has a ≈ 0 mean difference, and its
    // centroid-estimation noise must not fail the test.
    let diff_scale = config.cluster.spawn_threshold.max(1.0);
    let diff_stats: Vec<_> = (0..dims)
        .map(|d| {
            let diffs: Vec<f64> = pairs.iter().map(|(c, e)| c[d] - e[d]).collect();
            // sentinet-allow(expect-used): windows handed to mean_var are non-empty by construction
            mean_var(&diffs).expect("non-empty")
        })
        .collect();
    let diff_const = diff_stats
        .iter()
        .all(|mv| mv.var.sqrt() <= config.constancy_cv * mv.mean.abs().max(diff_scale));

    // When both tests pass (e.g. a pure shift over nearly collinear
    // states), prefer the model with the tighter relative spread on the
    // dominant attribute — matching the paper's procedure of comparing
    // the two variances.
    if ratio_const && !diff_const {
        return Diagnosis::Error(ErrorType::Calibration {
            gains: estimate_gains(&pairs, dims),
        });
    }
    if diff_const && !ratio_const {
        return Diagnosis::Error(ErrorType::Additive {
            offsets: diff_stats.iter().map(|mv| -mv.mean).collect(),
        });
    }
    if ratio_const && diff_const {
        let ratio_cv = max_cv(&pairs, dims, true);
        let diff_cv = max_cv(&pairs, dims, false);
        return if ratio_cv <= diff_cv {
            Diagnosis::Error(ErrorType::Calibration {
                gains: estimate_gains(&pairs, dims),
            })
        } else {
            Diagnosis::Error(ErrorType::Additive {
                offsets: diff_stats.iter().map(|mv| -mv.mean).collect(),
            })
        };
    }

    // Neither constant: the paper then re-checks for a Dynamic Change
    // attack; at the network level that was already excluded, so if the
    // sensor disagrees with every known error shape, report Unknown.
    Diagnosis::Error(ErrorType::Unknown)
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

fn max_cv(pairs: &[(&[f64], &[f64])], dims: usize, ratio: bool) -> f64 {
    (0..dims)
        .map(|d| {
            let xs: Vec<f64> = pairs
                .iter()
                .filter(|(_, e)| !ratio || e[d].abs() > 1e-9)
                .map(|(c, e)| if ratio { c[d] / e[d] } else { c[d] - e[d] })
                .collect();
            match mean_var(&xs) {
                Some(mv) => mv.var.sqrt() / mv.mean.abs().max(1.0),
                None => f64::INFINITY,
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn clean_network_classifies_none() {
        let b = identity_b(5);
        let ev = NetworkEvidence {
            b_co: &b,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        assert_eq!(classify_network(&ev, &cfg()), None);
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
        let ev = NetworkEvidence {
            b_co: &b,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        match classify_network(&ev, &cfg()) {
            Some(AttackType::DynamicCreation { created }) => {
                // Only the fabricated state (col 4) is reported; col 0
                // is hidden state 0's own (claimed) emission.
                assert_eq!(created, vec![4]);
            }
            other => panic!("expected creation, got {other:?}"),
        }
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
        let ev = NetworkEvidence {
            b_co: &b,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        match classify_network(&ev, &cfg()) {
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
        let ev = NetworkEvidence {
            b_co: &b,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        assert_eq!(classify_network(&ev, &cfg()), Some(AttackType::Mixed));
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
        let ev = NetworkEvidence {
            b_co: &b,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        match classify_network(&ev, &cfg()) {
            Some(AttackType::DynamicChange { pairs }) => {
                assert_eq!(pairs, vec![(2, 3), (3, 2)])
            }
            other => panic!("expected change, got {other:?}"),
        }
    }

    fn bce(rows: Vec<Vec<f64>>) -> StochasticMatrix {
        StochasticMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn unalarmed_sensor_is_error_free() {
        let b_co = identity_b(5);
        let net = NetworkEvidence {
            b_co: &b_co,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        let b = identity_b(6);
        let sens = SensorEvidence {
            b_ce: &b,
            active_rows: vec![],
            alarmed: false,
        };
        assert_eq!(classify_sensor(&net, &sens, &cfg()), Diagnosis::ErrorFree);
    }

    #[test]
    fn stuck_at_classification_matches_paper_table3() {
        let b_co = identity_b(5);
        let net = NetworkEvidence {
            b_co: &b_co,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids(),
        };
        // Columns: [⊥, slot0, slot1, slot2, slot3, slot4]; all mass on
        // slot 4 = the (15, 1) stuck state (paper Table 3 shape).
        let b = bce(vec![
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            vec![0.1, 0.0, 0.0, 0.0, 0.0, 0.9],
            vec![0.0, 0.0, 0.0, 0.33, 0.0, 0.67],
            vec![0.0, 0.01, 0.0, 0.0, 0.0, 0.99],
        ]);
        let sens = SensorEvidence {
            b_ce: &b,
            active_rows: vec![0, 1, 2, 3, 4],
            alarmed: true,
        };
        assert_eq!(
            classify_sensor(&net, &sens, &cfg()),
            Diagnosis::Error(ErrorType::StuckAt { state: 4 })
        );
    }

    #[test]
    fn calibration_classification() {
        let b_co = identity_b(4);
        // Centroids on a ray: state k ≈ 1.2 × state k−1 per attribute.
        let cents = vec![
            Some(vec![10.0, 50.0]),
            Some(vec![12.0, 60.0]),
            Some(vec![14.4, 72.0]),
            Some(vec![17.28, 86.4]),
        ];
        let net = NetworkEvidence {
            b_co: &b_co,
            active_rows: vec![0, 1, 2, 3],
            centroids: cents,
        };
        // Sensor reports state k+1 whenever the environment is in state
        // k: constant ratio x^c/x^e = 1/1.2.
        let b = bce(vec![
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 0.0], // top state maps to ⊥ (agrees)
        ]);
        let sens = SensorEvidence {
            b_ce: &b,
            active_rows: vec![0, 1, 2],
            alarmed: true,
        };
        match classify_sensor(&net, &sens, &cfg()) {
            Diagnosis::Error(ErrorType::Calibration { gains }) => {
                assert!((gains[0] - 1.2).abs() < 1e-9, "gains {gains:?}");
            }
            other => panic!("expected calibration, got {other}"),
        }
    }

    #[test]
    fn additive_classification() {
        let b_co = identity_b(4);
        // States spaced unevenly; sensor reports state k+1 where the
        // *difference* is constant (+5, +25) but the ratio varies a lot.
        let cents = vec![
            Some(vec![5.0, 20.0]),
            Some(vec![10.0, 45.0]),
            Some(vec![15.0, 70.0]),
            Some(vec![20.0, 95.0]),
        ];
        let net = NetworkEvidence {
            b_co: &b_co,
            active_rows: vec![0, 1, 2, 3],
            centroids: cents,
        };
        let b = bce(vec![
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
        ]);
        let sens = SensorEvidence {
            b_ce: &b,
            active_rows: vec![0, 1, 2],
            alarmed: true,
        };
        match classify_sensor(&net, &sens, &cfg()) {
            Diagnosis::Error(ErrorType::Additive { offsets }) => {
                assert!((offsets[0] - 5.0).abs() < 1e-9, "offsets {offsets:?}");
                assert!((offsets[1] - 25.0).abs() < 1e-9, "offsets {offsets:?}");
            }
            other => panic!("expected additive, got {other}"),
        }
    }

    #[test]
    fn scattered_bce_is_unknown() {
        let b_co = identity_b(4);
        let net = NetworkEvidence {
            b_co: &b_co,
            active_rows: vec![0, 1, 2, 3],
            centroids: centroids()[..4].to_vec(),
        };
        // Every hidden state scatters over many error states: no stuck
        // column, no one-to-one map.
        let b = bce(vec![
            vec![0.1, 0.3, 0.2, 0.2, 0.2],
            vec![0.1, 0.2, 0.3, 0.2, 0.2],
            vec![0.1, 0.2, 0.2, 0.3, 0.2],
            vec![0.1, 0.2, 0.2, 0.2, 0.3],
        ]);
        let sens = SensorEvidence {
            b_ce: &b,
            active_rows: vec![0, 1, 2, 3],
            alarmed: true,
        };
        assert_eq!(
            classify_sensor(&net, &sens, &cfg()),
            Diagnosis::Error(ErrorType::Unknown)
        );
    }

    #[test]
    fn single_active_row_is_stuck_at() {
        // With one active hidden state, a single dominant column is by
        // definition the stuck-at signature (Eq. 7 holds trivially).
        let b_co = identity_b(3);
        let net = NetworkEvidence {
            b_co: &b_co,
            active_rows: vec![0, 1, 2],
            centroids: centroids()[..3].to_vec(),
        };
        let b = bce(vec![
            vec![0.0, 0.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ]);
        let sens = SensorEvidence {
            b_ce: &b,
            active_rows: vec![0],
            alarmed: true,
        };
        assert_eq!(
            classify_sensor(&net, &sens, &cfg()),
            Diagnosis::Error(ErrorType::StuckAt { state: 1 })
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
