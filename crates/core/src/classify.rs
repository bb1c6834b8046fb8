//! Error-versus-attack classification (paper §3.4, Fig. 5).
//!
//! The classifier never looks at raw readings: it inspects the
//! *structure* of the observation matrices of the two HMMs.
//!
//! ```text
//! filtered alarm ever raised on sensor j?
//! ├─ no → Error/attack-free
//! └─ yes → B^CO rows ⊥ AND columns ⊥ ?
//!     ├─ no → ATTACK:
//!     │   ├─ only column pairs non-⊥ → Dynamic Creation
//!     │   ├─ only row pairs non-⊥    → Dynamic Deletion
//!     │   └─ both                    → Mixed
//!     └─ yes →
//!         ├─ correct↔observable association non-identity,
//!         │  attributes differ on every dimension → Dynamic Change
//!         └─ identity → ERROR — inspect sensor j's B^CE (⊥ dropped):
//!             ├─ single dominant column (Eq. 7)  → Stuck-at(state)
//!             ├─ one-to-one association (Eq. 8):
//!             │   ├─ ratio  x^c/x^e const per dim → Calibration
//!             │   └─ diff   x^c−x^e const per dim → Additive
//!             └─ otherwise                        → Unknown
//! ```
//!
//! The walk returns the leaf with a `Decision` for each test that
//! decided it: the statistic read, its threshold, and the value at
//! which the statistic means full confidence. Confidence is one rule,
//! the `margin` `unit((statistic − threshold) / (full − threshold))`,
//! multiplied over the records (see `confidence`): a verdict whose
//! statistic barely cleared its threshold deserves less trust.

use crate::config::PipelineConfig;
use crate::runtime::{NetMemo, SensorRuntime, BOT_SYMBOL};
use sentinet_hmm::structure::{
    mean_var, one_to_one_association, stuck_at_column, MeanVar, OrthogonalityReport,
};
use sentinet_hmm::{OnlineHmmEstimator, StochasticMatrix};
use std::fmt;

// The threshold table: every number the walk compares against but the
// `PipelineConfig` fields `ortho`, `stuck_at_threshold` (Eq. 7),
// `association_threshold` (Eq. 8) and `cluster.spawn_threshold`.

/// Mass a hidden state must spread onto an unclaimed column to be a
/// Dynamic Creation signature; less is one or two windows of noise.
pub const CREATION_SPREAD_FLOOR: f64 = 0.15;
/// The most ⊥ mass a row of `B^CE` holds and still carries error.
const BOT_DOMINANCE: f64 = 0.5;
/// Two centroids differ on an attribute when further apart than this.
const ATTRIBUTE_RESOLUTION: f64 = f64::EPSILON;
/// An attribute this small divides nothing (no ratio or gain over it),
/// and a ratio's spread is judged against a mean no smaller.
const ZERO_ATTRIBUTE: f64 = 1e-9;
/// The coefficient of variation at or below which a statistic is constant.
const CONSTANCY_CV: f64 = 0.15;
/// The associated pairs the calibration/additive test needs.
const MIN_ASSOCIATION_PAIRS: usize = 2;
/// The updates a row of **B** needs to take part in the analysis.
const MIN_STATE_EVIDENCE: u64 = 3;
/// The windows after which an `ErrorFree` verdict is not damped.
const MATURITY_WINDOWS: f64 = 48.0;

/// The specific accidental-error type (paper §3.3 fault model).
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorType {
    /// Sensor constantly reports one model state.
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
    /// The adversary fabricated spurious environment state(s).
    DynamicCreation {
        /// Observable-state columns absorbing mass from a shared hidden state.
        created: Vec<usize>,
    },
    /// The adversary suppressed environment state(s).
    DynamicDeletion {
        /// Hidden-state rows collapsing onto a shared observable state.
        deleted: Vec<usize>,
    },
    /// The adversary remapped state attributes, keeping the temporal structure.
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
        use {AttackType as A, Diagnosis as D, ErrorType as E};
        match self {
            D::ErrorFree => write!(f, "error/attack-free"),
            D::Error(E::StuckAt { state }) => write!(f, "error: stuck-at state {state}"),
            D::Error(E::Calibration { gains }) => write!(f, "error: calibration, gains {gains:?}"),
            D::Error(E::Additive { offsets }) => write!(f, "error: additive, offsets {offsets:?}"),
            D::Error(E::Unknown) => write!(f, "error: unknown type"),
            D::Attack(A::DynamicCreation { created }) => {
                write!(f, "attack: dynamic creation of states {created:?}")
            }
            D::Attack(A::DynamicDeletion { deleted }) => {
                write!(f, "attack: dynamic deletion of states {deleted:?}")
            }
            D::Attack(A::DynamicChange { pairs }) => {
                write!(f, "attack: dynamic change over pairs {pairs:?}")
            }
            D::Attack(A::Mixed) => write!(f, "attack: mixed"),
        }
    }
}

/// A test of the walk, by the leaf it decides and the statistic it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// Deletion, Mixed: the largest row-Gram mass two active `B^CO` rows share.
    RowOverlap,
    /// Creation: the largest mass an active row places on a created column.
    Creation,
    /// Change: the weakest remapped `B^CO` mass.
    Change,
    /// `ErrorFree`: the largest active off-diagonal `B^CO` row-Gram entry.
    Clean,
    /// `ErrorFree`: the windows the model has processed.
    Maturity,
    /// Stuck-at (Eq. 7): the weakest `B^CE` row's mass on the column.
    StuckAt,
    /// Calibration, Additive (Eq. 8): the weakest associated `B^CE` mass.
    Association,
    /// Calibration, Additive: the association's pair count.
    Breadth,
}

/// One test the walk took to reach its leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Decision {
    /// The test.
    pub(crate) node: Node,
    /// The statistic it read.
    pub(crate) statistic: f64,
    /// The threshold the statistic was held against.
    pub(crate) threshold: f64,
    /// The statistic's value of full confidence.
    pub(crate) full: f64,
}

fn record(node: Node, statistic: f64, threshold: f64, full: f64) -> Decision {
    Decision {
        node,
        statistic,
        threshold,
        full,
    }
}

/// How far a decision's statistic sits past its threshold, as a share
/// of the way to full confidence, clamped into `[0, 1]`.
pub(crate) fn margin(d: &Decision) -> f64 {
    let share = (d.statistic - d.threshold) / (d.full - d.threshold);
    // A statistic exactly at a threshold above `full` gives −0; `+ 0.0`
    // makes it 0 and leaves every other value as it is.
    share.clamp(0.0, 1.0) + 0.0
}

/// The records that decided a leaf, its own test first: none for an
/// `Unknown` error, or for an `ErrorFree` no clean `B^CO` backs.
pub(crate) type Decisions = [Option<Decision>; 2];

/// A leaf's confidence in `[0, 1]`: its own margin, times the second
/// record's (an association's breadth at half weight).
pub(crate) fn confidence(decisions: &Decisions) -> f64 {
    let [Some(leaf), second] = decisions else {
        return 0.0;
    };
    let damping = second.map_or(1.0, |d| match d.node {
        Node::Breadth => 0.5 + 0.5 * margin(&d),
        _ => margin(&d),
    });
    margin(leaf) * damping
}

/// The hidden-state rows of `estimator`'s **B** with at least
/// `MIN_STATE_EVIDENCE` updates: an identity-prior row nothing has
/// updated would otherwise pass every structural test as perfect.
pub fn evidenced_rows(estimator: &OnlineHmmEstimator) -> impl Iterator<Item = usize> + '_ {
    let evidence = estimator.observation_evidence().iter().enumerate();
    evidence
        .filter(|&(_, &count)| count >= MIN_STATE_EVIDENCE)
        .map(|(i, _)| i)
}

/// Whether row `i` of a `B^CE` carries error signal: at most
/// `BOT_DOMINANCE` of its mass sits on ⊥. A ⊥-dominated row describes
/// windows where the tracked sensor *agreed* with the correct state,
/// and renormalizing its residue would fabricate a signature.
pub fn carries_error(b_ce: &StochasticMatrix, i: usize) -> bool {
    b_ce[(i, BOT_SYMBOL)] <= BOT_DOMINANCE
}

/// The Fig. 5 walk for one sensor (its runtime, if ever seen) over the
/// network half `net` holds: the leaf and the records that decided it.
pub(crate) fn walk(
    net: &NetMemo,
    sensor: Option<&SensorRuntime>,
    windows_processed: u64,
    config: &PipelineConfig,
) -> (Diagnosis, Decisions) {
    match (sensor.filter(|rt| rt.ever_alarmed()), &net.attack) {
        (None, _) => {
            // As clean as `B^CO`, damped while the model is young.
            let windows = windows_processed as f64;
            let maturity = Some(record(Node::Maturity, windows, 0.0, MATURITY_WINDOWS));
            (Diagnosis::ErrorFree, [net.clean, net.clean.and(maturity)])
        }
        (Some(_), Some((attack, d))) => (Diagnosis::Attack(attack.clone()), [Some(*d), None]),
        (Some(rt), None) => classify_sensor(&net.centroids, rt.m_ce(), config),
    }
}

/// The network half of the walk over `B^CO`'s active (`claimed`) rows:
/// the attack reshaping the hidden↔observable correspondence, if any,
/// and what backs an `ErrorFree` verdict — the largest active
/// off-diagonal row-Gram entry, unless `B^CO` is not orthogonal — each
/// with its record.
pub(crate) fn network(
    b: &StochasticMatrix,
    claimed: &[usize],
    report: &OrthogonalityReport,
    centroids: &[Option<Vec<f64>>],
    tol: f64,
) -> (Option<(AttackType, Decision)>, Option<Decision>) {
    let clean = (!claimed.is_empty() && report.is_orthogonal()).then(|| {
        let g = b.row_gram();
        let mut max_off: f64 = 0.0;
        for &i in claimed {
            for &j in claimed.iter().filter(|&&j| j > i) {
                max_off = max_off.max(g[i][j]);
            }
        }
        record(Node::Clean, max_off, tol, 0.0)
    });
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
    let mut created: Vec<usize> = Vec::new();
    let mut change_pairs: Vec<(usize, usize)> = Vec::new();
    for &r in claimed {
        let substantial = (0..b.num_cols()).filter(|&c| b[(r, c)] >= CREATION_SPREAD_FLOOR);
        match substantial.collect::<Vec<usize>>().as_slice() {
            [only] if *only == r => {}
            [only] => change_pairs.push((r, *only)),
            many => created.extend(many.iter().filter(|&&c| c != r && !claimed.contains(&c))),
        }
    }
    created.sort_unstable();
    created.dedup();
    let violations = &report.row_violations;
    let overlap = violations.iter().map(|v| v.mass).fold(0.0, f64::max);
    let overlap = record(Node::RowOverlap, overlap, tol, 1.0);
    let attack = match (!created.is_empty(), !violations.is_empty()) {
        (true, true) => Some((AttackType::Mixed, overlap)),
        (true, false) => {
            let masses = claimed
                .iter()
                .flat_map(|&r| created.iter().map(move |&c| b[(r, c)]));
            let mass = masses.fold(0.0, f64::max);
            let creation = AttackType::DynamicCreation { created };
            Some((creation, record(Node::Creation, mass, 0.0, 1.0)))
        }
        (false, true) => {
            let mut deleted: Vec<usize> = violations
                .iter()
                .flat_map(|v| [v.first, v.second])
                .collect();
            deleted.sort_unstable();
            deleted.dedup();
            Some((AttackType::DynamicDeletion { deleted }, overlap))
        }
        (false, false) => {
            // Dynamic Change: one-to-one non-identity remapping whose
            // state attributes differ in every dimension (the paper's
            // ∀i: x_i^c ≠ x_i^o condition).
            let differ = |c: usize, o: usize| match (&centroids[c], &centroids[o]) {
                (Some(cc), Some(oc)) => {
                    (cc.iter().zip(oc)).all(|(a, b)| (a - b).abs() > ATTRIBUTE_RESOLUTION)
                }
                _ => false,
            };
            let remapped = change_pairs.iter().all(|&(c, o)| differ(c, o));
            (remapped && !change_pairs.is_empty()).then(|| {
                let masses = change_pairs.iter().map(|&(c, o)| b[(c, o)]);
                let weakest = masses.fold(1.0, f64::min);
                let change = AttackType::DynamicChange {
                    pairs: change_pairs,
                };
                (change, record(Node::Change, weakest, 0.0, 1.0))
            })
        }
    };
    (attack, clean)
}

/// The error half of the walk, taken when `B^CO` showed no attack:
/// the sensor's `M_CE` names its error type.
fn classify_sensor(
    centroids: &[Option<Vec<f64>>],
    m_ce: &OnlineHmmEstimator,
    config: &PipelineConfig,
) -> (Diagnosis, Decisions) {
    const UNKNOWN: (Diagnosis, Decisions) = (Diagnosis::Error(ErrorType::Unknown), [None; 2]);
    // Drop the ⊥ column (index 0) as the paper prescribes: column k of
    // what remains is model-state slot k. Rows ⊥ dominates sit the
    // analysis out along with the ⊥ column itself (see [`carries_error`]).
    let b_ce = m_ce.observation();
    let Ok(b) = b_ce.drop_columns(&[0]) else {
        return UNKNOWN;
    };
    let rows: Vec<usize> = evidenced_rows(m_ce)
        .filter(|&i| carries_error(b_ce, i))
        .collect();

    // Eq. 7: stuck-at — one column dominates every active row, as
    // strongly as the weakest row's mass on it clears the threshold.
    let thr = config.stuck_at_threshold;
    if let Some(state) = stuck_at_column(&b, thr, Some(&rows)) {
        let weakest = rows.iter().map(|&i| b[(i, state)]).fold(1.0, f64::min);
        let stuck = [Some(record(Node::StuckAt, weakest, thr, 1.0)), None];
        return (Diagnosis::Error(ErrorType::StuckAt { state }), stuck);
    }

    // Eq. 8: one-to-one correct↔error association.
    let thr = config.association_threshold;
    let Some(assoc) = one_to_one_association(&b, thr, Some(&rows)) else {
        return UNKNOWN;
    };

    // Resolve centroids: hidden row i ↔ slot i; error column k ↔ slot k
    // (the ⊥ drop re-aligned columns with slots).
    let slot = |s: usize| centroids.get(s)?.as_deref();
    let pairs: Vec<(&[f64], &[f64])> = assoc
        .iter()
        .filter_map(|&(c, e)| Some((slot(c)?, slot(e)?)))
        .collect();
    if pairs.len() < MIN_ASSOCIATION_PAIRS {
        return UNKNOWN;
    }

    // Ratio constancy (per attribute): x^c / x^e ≈ const ⇒ calibration.
    let ratios = per_attribute(&pairs, |c, e| (e.abs() > ZERO_ATTRIBUTE).then(|| c / e));
    let ratio_stats: Option<Vec<MeanVar>> = ratios
        .map(|r| mean_var(&r).filter(|_| r.len() >= MIN_ASSOCIATION_PAIRS))
        .collect();
    let constant =
        |mv: &MeanVar, scale: f64| mv.var.sqrt() <= CONSTANCY_CV * mv.mean.abs().max(scale);
    let ratio_stats = ratio_stats.filter(|s| s.iter().all(|mv| constant(mv, ZERO_ATTRIBUTE)));
    // Difference constancy: x^c − x^e ≈ const ⇒ additive. The spread
    // is judged relative to max(|mean|, state spacing): an attribute
    // the fault leaves untouched has a ≈ 0 mean difference, and its
    // centroid-estimation noise must not fail the test.
    let diff_scale = config.cluster.spawn_threshold.max(1.0);
    let diffs = per_attribute(&pairs, |c, e| Some(c - e));
    let diff_stats: Vec<MeanVar> = diffs.filter_map(|d| mean_var(&d)).collect();
    let diff_const = diff_stats.iter().all(|mv| constant(mv, diff_scale));

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
    // past the threshold, damped by the evidence breadth (pairs beyond
    // the minimum).
    let weakest = assoc.iter().map(|&(i, k)| b[(i, k)]).fold(1.0, f64::min);
    let (breadth, min) = (assoc.len() as f64, MIN_ASSOCIATION_PAIRS as f64);
    let decisions = [
        Some(record(Node::Association, weakest, thr, 1.0)),
        Some(record(Node::Breadth, breadth, min - 1.0, 2.0 * min)),
    ];
    let error = if calibration {
        // The faulty sensor's gain x^e / x^c, averaged over the pairs.
        let gains = per_attribute(&pairs, |c, e| (c.abs() > ZERO_ATTRIBUTE).then(|| e / c));
        let gains = gains.map(|g| mean_var(&g).map_or(1.0, |mv| mv.mean));
        ErrorType::Calibration {
            gains: gains.collect(),
        }
    } else {
        ErrorType::Additive {
            offsets: diff_stats.iter().map(|mv| -mv.mean).collect(),
        }
    };
    (Diagnosis::Error(error), decisions)
}

/// `f(x^c_d, x^e_d)` over the pairs where it is defined, for each
/// attribute `d`.
fn per_attribute<'a>(
    pairs: &'a [(&[f64], &[f64])],
    f: impl Fn(f64, f64) -> Option<f64> + 'a,
) -> impl Iterator<Item = Vec<f64>> + 'a {
    let dims = pairs[0].0.len();
    (0..dims).map(move |d| pairs.iter().filter_map(|(c, e)| f(c[d], e[d])).collect())
}

/// The largest relative spread `σ / max(|μ|, 1)` over the attributes.
fn max_cv(stats: &[MeanVar]) -> f64 {
    stats
        .iter()
        .map(|mv| mv.var.sqrt() / mv.mean.abs().max(1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
#[path = "../../../tests/support/seeded.rs"]
mod seeded;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{GlobalSnapshot, GlobalStates, MceSnapshot, SensorSnapshot};
    use crate::runtime::{GlobalModel, SensorRuntime, TrackRecord};
    use sentinet_cluster::ModelStates;
    use sentinet_hmm::EstimatorState;

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

    /// An estimator of `b`'s rows (no chain), row `i` updated
    /// `visits[i]` times.
    fn estimator(b: &StochasticMatrix, visits: Vec<u64>) -> EstimatorState {
        EstimatorState {
            chain: None,
            b: (0..b.num_rows()).map(|i| b.row(i).to_vec()).collect(),
            gamma: 0.1,
            visits,
            generation: 0,
        }
    }

    /// Visits that make exactly `rows` of an `n`-row **B** evidenced.
    fn evidencing(n: usize, rows: &[usize]) -> Vec<u64> {
        let visits = |i| {
            if rows.contains(&i) {
                MIN_STATE_EVIDENCE
            } else {
                0
            }
        };
        (0..n).map(visits).collect()
    }

    /// The network half on `b` over `rows`, with the attack's margin.
    fn network(b: &StochasticMatrix, rows: &[usize]) -> Option<(AttackType, f64)> {
        let report = OrthogonalityReport::analyze(b, cfg().ortho, Some(rows));
        let tol = cfg().ortho.max_offdiag;
        let (attack, _) = super::network(b, rows, &report, &centroids(), tol);
        attack.map(|(attack, d)| (attack, margin(&d)))
    }

    fn verdict(b: &StochasticMatrix) -> Option<AttackType> {
        network(b, &[0, 1, 2, 3]).map(|(attack, _)| attack)
    }

    /// The error half on `b_ce` over its evidenced `rows`, with the
    /// verdict's confidence.
    fn sensor(
        b_ce: &StochasticMatrix,
        rows: &[usize],
        centroids: &[Option<Vec<f64>>],
    ) -> (ErrorType, f64) {
        let visits = evidencing(b_ce.num_rows(), rows);
        let m_ce = OnlineHmmEstimator::import_state(estimator(b_ce, visits)).unwrap();
        match classify_sensor(centroids, &m_ce, &cfg()) {
            (Diagnosis::Error(error), decisions) => (error, confidence(&decisions)),
            other => panic!("the error half returned {other:?}"),
        }
    }

    /// A global model restored with `M_CO` = `b_co` (row `i` updated
    /// `visits[i]` times) over model states at `centroids`, `inactive`
    /// slots retired, after `windows` windows.
    fn global(
        config: &PipelineConfig,
        b_co: &StochasticMatrix,
        visits: Vec<u64>,
        centroids: Vec<Vec<f64>>,
        inactive: &[usize],
        windows: u64,
    ) -> GlobalModel {
        let mut states = ModelStates::new(centroids, config.cluster.clone()).snapshot();
        for &slot in inactive {
            states.active[slot] = false;
        }
        let snapshot = GlobalSnapshot {
            windows_processed: windows,
            bootstrap_points: Vec::new(),
            states: Some(GlobalStates {
                states,
                m_co: estimator(b_co, visits),
            }),
        };
        GlobalModel::from_snapshot(config.clone(), snapshot).unwrap()
    }

    /// A sensor with one track open whose `M_CE` is `b_ce`, row `i`
    /// updated `visits[i]` times.
    fn alarmed(
        config: &PipelineConfig,
        b_ce: &StochasticMatrix,
        visits: Vec<u64>,
    ) -> SensorRuntime {
        let fresh = SensorRuntime::new(config, b_ce.num_rows()).snapshot();
        let track = TrackRecord {
            opened: 0,
            closed: None,
        };
        SensorRuntime::from_snapshot(SensorSnapshot {
            m_ce: MceSnapshot::Built(estimator(b_ce, visits)),
            tracks: vec![track],
            ..fresh
        })
        .unwrap()
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
        // An unalarmed sensor's confidence after `windows` windows of a
        // model whose `B^CO` is `b`, every row evidenced.
        let clean = |b: &StochasticMatrix, windows| {
            let n = b.num_rows();
            let cents = centroids().into_iter().flatten().take(n).collect();
            let model = global(&cfg(), b, evidencing(n, &[0, 1, 2]), cents, &[], windows);
            let runtime = SensorRuntime::new(&cfg(), n);
            let (verdict, confidence) = model.classify_with_confidence(Some(&runtime));
            assert_eq!(verdict, Diagnosis::ErrorFree);
            confidence
        };
        let young = clean(&identity_b(3), 2);
        let mature = clean(&identity_b(3), 200);
        assert!(mature > 0.9, "{mature}");
        assert!(young < 0.1, "{young}");
        // Non-orthogonal matrix: zero clean confidence.
        let bad = StochasticMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        assert_eq!(clean(&bad, 200), 0.0);
        // Disjoint rows too spread to be states are not orthogonal
        // either, though no two of them overlap.
        let thin = bce(vec![vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 0.5, 0.5]]);
        assert_eq!(clean(&thin, 200), 0.0);
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

    #[test]
    fn a_sensor_whose_b_ce_rows_are_all_bot_dominated_is_unknown() {
        // Every evidenced row sits mostly on ⊥: no row carries error, so
        // no association has the pairs the calibration/additive test
        // needs.
        let b_co = identity_b(2);
        let cents = vec![vec![12.0, 94.0], vec![24.0, 70.0]];
        let model = global(&cfg(), &b_co, vec![5, 5], cents, &[], 60);
        let b_ce = bce(vec![vec![0.75, 0.25, 0.0], vec![0.75, 0.0, 0.25]]);
        let sensor = alarmed(&cfg(), &b_ce, vec![5, 5]);
        let walked = model.walk(Some(&sensor));
        assert_eq!(walked, (Diagnosis::Error(ErrorType::Unknown), [None; 2]));
        assert_eq!(confidence(&walked.1).to_bits(), 0.0f64.to_bits());
    }

    /// `B` rows of `cols` columns on the quarter grid.
    fn quarter_rows(rng: &mut seeded::TestRng, rows: usize, cols: usize) -> StochasticMatrix {
        let row = |rng: &mut seeded::TestRng| {
            let mut row = vec![0.0; cols];
            for _ in 0..4 {
                row[rng.usize_in(0, cols)] += 0.25;
            }
            row
        };
        bce(rng.vec(rows, row))
    }

    seeded::properties! {
        var: "WALK_TOTALITY_SEED", package: "sentinet-core", target: "--lib", cases: 3000;

        /// Over 2–3-state `B^CO` and `B^CE` on a quarter grid, with
        /// thresholds on that grid, centroids collinear or scattered
        /// (zero, repeated and retired ones among them) and any visit
        /// counts, the walk never panics; every confidence and every
        /// record's margin is finite, in `[0, 1]` and not `-0`; and
        /// walking again, through the memo or through a model restored
        /// from the same snapshot, takes the same leaf and records.
        fn the_walk_is_total_and_repeatable(rng) {
            let n = rng.usize_in(2, 4);
            let quarters = [0.0, 0.25, 0.5, 0.75];
            let mut config = cfg();
            config.stuck_at_threshold = rng.pick(&quarters);
            config.association_threshold = rng.pick(&quarters);
            config.ortho.max_offdiag = rng.pick(&quarters[1..]);
            let values = [0.0, 1.0, 2.0, 4.0, 12.0, 94.0, -3.0];
            let collinear = rng.bool();
            let cents: Vec<Vec<f64>> = rng.vec(n, |rng| {
                let x = rng.pick(&values);
                vec![x, if collinear { 2.0 * x } else { rng.pick(&values) }]
            });
            let inactive: Vec<usize> = (1..n).filter(|_| rng.usize_in(0, 4) == 0).collect();
            let visits = |rng: &mut seeded::TestRng| rng.vec(n, |rng| rng.pick(&[0, 1, 3, 7]));
            let b_co = quarter_rows(rng, n, n);
            let co_visits = visits(rng);
            let windows = rng.range(0u64..100);
            let model = global(&config, &b_co, co_visits.clone(), cents.clone(), &inactive, windows);
            let twin = global(&config, &b_co, co_visits, cents, &inactive, windows);
            let b_ce = quarter_rows(rng, n, n + 1);
            let mut ce_visits = visits(rng);
            ce_visits[0] = ce_visits[0].max(1);
            let suspect = alarmed(&config, &b_ce, ce_visits);
            let quiet = SensorRuntime::new(&config, n);
            for runtime in [None, Some(&quiet), Some(&suspect)] {
                let walked = model.walk(runtime);
                let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x) && x.is_sign_positive();
                for d in walked.1.iter().flatten() {
                    assert!(unit(margin(d)), "{d:?}: margin {}", margin(d));
                }
                let c = confidence(&walked.1);
                assert!(unit(c), "{walked:?}: confidence {c}");
                assert_eq!(model.walk(runtime), walked);
                assert_eq!(twin.walk(runtime), walked);
            }
        }
    }
}
