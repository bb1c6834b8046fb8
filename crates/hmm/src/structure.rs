//! Structural analysis of observation matrices (paper §3.4).
//!
//! The classification methodology never compares raw traces; it inspects
//! the *structure* of the observation symbol distribution **B** of the
//! two HMMs `M_CO` and `M_CE`:
//!
//! - **row/column orthogonality** of `B^CO` separates errors from
//!   attacks (`Σ_k b_ik·b_jk = δ_ij` and `Σ_k b_ki·b_kj = δ_ij`);
//! - a **single all-ones column** of `B^CE` (Eq. 7) identifies a
//!   stuck-at error;
//! - orthogonal `B^CE` rows/columns (Eq. 8) indicate a one-to-one
//!   correct↔error state mapping (calibration or additive errors),
//!   disambiguated by ratio/difference constancy over the associated
//!   state attributes.
//!
//! Tolerances: the paper *states* "< 0.1 for i ≠ j and > 0.8 for i = j",
//! but its own Table 2 matrix (sensor 6, declared orthogonal) contains
//! an off-diagonal Gram entry of 0.89·0.17 ≈ 0.151 and a diagonal entry
//! of 0.17² + 0.83² ≈ 0.718 — the authors were reading "approximately".
//! Our defaults (`max_offdiag = 0.21`, `min_diag = 0.6`) are the loosest
//! thresholds that still separate every matrix the paper publishes:
//! Tables 2 and 4 classify as orthogonal, Table 6's deletion mass
//! (0.999) and Table 7's creation mass (0.229, weak row 0.542) classify
//! as violations.

use crate::matrix::StochasticMatrix;

/// Tolerances for the orthogonality tests.
///
/// Defaults (`0.21` / `0.6`) are calibrated so that every matrix the
/// paper publishes classifies the way the paper classifies it; see the
/// module docs for why the paper's stated `0.1`/`0.8` don't satisfy its
/// own data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrthoTolerance {
    /// Maximum allowed off-diagonal Gram entry.
    pub max_offdiag: f64,
    /// Minimum required diagonal Gram entry.
    pub min_diag: f64,
}

impl Default for OrthoTolerance {
    fn default() -> Self {
        Self {
            max_offdiag: 0.21,
            min_diag: 0.6,
        }
    }
}

/// A pair of rows or columns that violate orthogonality, with the Gram
/// mass they share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonOrthogonalPair {
    /// First index of the pair (row or column depending on context).
    pub first: usize,
    /// Second index of the pair.
    pub second: usize,
    /// The off-diagonal Gram entry `Σ_k b_{first,k}·b_{second,k}` (rows)
    /// or the column analogue.
    pub mass: f64,
}

/// Result of the row/column orthogonality analysis of a **B** matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct OrthogonalityReport {
    /// Whether all row pairs are orthogonal and all row norms ≈ 1.
    pub rows_orthogonal: bool,
    /// Whether all column pairs are orthogonal.
    pub cols_orthogonal: bool,
    /// Row pairs violating orthogonality (deletion-attack signature).
    pub row_violations: Vec<NonOrthogonalPair>,
    /// Column pairs violating orthogonality (creation-attack signature).
    pub col_violations: Vec<NonOrthogonalPair>,
    /// Rows whose diagonal Gram entry falls below the tolerance, i.e.
    /// rows spread over several symbols.
    pub weak_rows: Vec<usize>,
    /// The largest off-diagonal row-Gram entry between analysed rows
    /// (`0` with fewer than two).
    pub max_row_offdiag: f64,
}

impl OrthogonalityReport {
    /// Analyzes `b` under tolerance `tol`, optionally restricted to
    /// `active_rows` (rows with actual evidence; identity-prior rows of
    /// an online estimator otherwise masquerade as perfect).
    pub fn analyze(
        b: &StochasticMatrix,
        tol: OrthoTolerance,
        active_rows: Option<&[usize]>,
    ) -> Self {
        let rows: Vec<usize> = match active_rows {
            Some(r) => r.to_vec(),
            None => (0..b.num_rows()).collect(),
        };
        // Only the analysed rows' Gram entries are read, each summed in
        // the order `row_gram` sums it, so the bits match.
        let dot =
            |i: usize, j: usize| -> f64 { b.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum() };
        let mut row_violations = Vec::new();
        let mut weak_rows = Vec::new();
        let mut max_row_offdiag: f64 = 0.0;
        for (ai, &i) in rows.iter().enumerate() {
            if dot(i, i) < tol.min_diag {
                weak_rows.push(i);
            }
            for &j in rows.iter().skip(ai + 1) {
                let mass = dot(i, j);
                max_row_offdiag = max_row_offdiag.max(mass);
                if mass > tol.max_offdiag {
                    row_violations.push(NonOrthogonalPair {
                        first: i,
                        second: j,
                        mass,
                    });
                }
            }
        }

        // Columns: only columns receiving mass from active rows matter.
        // The upper triangle of their Gram, accumulated row by row in
        // one flat buffer.
        let ncols = b.num_cols();
        let mut cg = vec![0.0; ncols * ncols];
        for &r in &rows {
            let row = b.row(r);
            for (i, &x) in row.iter().enumerate() {
                for (j, &y) in row.iter().enumerate().skip(i) {
                    cg[i * ncols + j] += x * y;
                }
            }
        }
        let mut col_violations = Vec::new();
        for i in 0..ncols {
            for j in i + 1..ncols {
                let mass = cg[i * ncols + j];
                if mass > tol.max_offdiag {
                    col_violations.push(NonOrthogonalPair {
                        first: i,
                        second: j,
                        mass,
                    });
                }
            }
        }

        Self {
            rows_orthogonal: row_violations.is_empty() && weak_rows.is_empty(),
            cols_orthogonal: col_violations.is_empty(),
            row_violations,
            col_violations,
            weak_rows,
            max_row_offdiag,
        }
    }

    /// True when both rows and columns pass: the error signature (or a
    /// dynamic-change attack, which preserves orthogonality).
    pub fn is_orthogonal(&self) -> bool {
        self.rows_orthogonal && self.cols_orthogonal
    }
}

/// Memoized one-to-one association result (`None` = no association).
type CachedAssociation = Option<Vec<(usize, usize)>>;

/// Cache key for the parameterized structural tests: an estimator's
/// update generation plus the query parameters.
#[derive(Debug, Clone, PartialEq)]
struct CacheKey {
    generation: u64,
    max_offdiag: f64,
    min_diag: f64,
    threshold: f64,
    active_rows: Option<Vec<usize>>,
}

impl CacheKey {
    fn new(generation: u64, active_rows: Option<&[usize]>) -> Self {
        Self {
            generation,
            max_offdiag: 0.0,
            min_diag: 0.0,
            threshold: 0.0,
            active_rows: active_rows.map(<[usize]>::to_vec),
        }
    }
}

/// Memoized structural analysis of one evolving observation matrix.
///
/// The Gram-matrix orthogonality analysis is `O(m²·n)` and the pipeline
/// consults it on every `classify`/`network_attack`/confidence query —
/// typically many times between matrix updates. Keying each result on
/// the estimator's *update generation* (see
/// `OnlineHmmEstimator::generation`) makes repeated queries after
/// unchanged windows O(1): the caller passes the current generation and
/// the cache recomputes only when it, or a query parameter, changed.
#[derive(Debug, Clone, Default)]
pub struct StructureCache {
    ortho: Option<(CacheKey, OrthogonalityReport)>,
    stuck: Option<(CacheKey, Option<usize>)>,
    assoc: Option<(CacheKey, CachedAssociation)>,
    recomputes: u64,
}

impl StructureCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`OrthogonalityReport::analyze`]. `generation` must
    /// uniquely identify the current contents of `b`.
    pub fn orthogonality(
        &mut self,
        generation: u64,
        b: &StochasticMatrix,
        tol: OrthoTolerance,
        active_rows: Option<&[usize]>,
    ) -> &OrthogonalityReport {
        let mut key = CacheKey::new(generation, active_rows);
        key.max_offdiag = tol.max_offdiag;
        key.min_diag = tol.min_diag;
        if !matches!(&self.ortho, Some((k, _)) if *k == key) {
            self.recomputes += 1;
            let report = OrthogonalityReport::analyze(b, tol, active_rows);
            self.ortho = Some((key, report));
        }
        // sentinet-allow(expect-used): the memo entry is filled on the line above
        &self.ortho.as_ref().expect("just filled").1
    }

    /// Memoized [`stuck_at_column`].
    pub fn stuck_at(
        &mut self,
        generation: u64,
        b: &StochasticMatrix,
        threshold: f64,
        active_rows: Option<&[usize]>,
    ) -> Option<usize> {
        let mut key = CacheKey::new(generation, active_rows);
        key.threshold = threshold;
        if !matches!(&self.stuck, Some((k, _)) if *k == key) {
            self.recomputes += 1;
            let column = stuck_at_column(b, threshold, active_rows);
            self.stuck = Some((key, column));
        }
        // sentinet-allow(expect-used): the memo entry is filled on the line above
        self.stuck.as_ref().expect("just filled").1
    }

    /// Memoized [`one_to_one_association`].
    pub fn association(
        &mut self,
        generation: u64,
        b: &StochasticMatrix,
        threshold: f64,
        active_rows: Option<&[usize]>,
    ) -> Option<&[(usize, usize)]> {
        let mut key = CacheKey::new(generation, active_rows);
        key.threshold = threshold;
        if !matches!(&self.assoc, Some((k, _)) if *k == key) {
            self.recomputes += 1;
            let pairs = one_to_one_association(b, threshold, active_rows);
            self.assoc = Some((key, pairs));
        }
        // sentinet-allow(expect-used): the memo entry is filled on the line above
        self.assoc.as_ref().expect("just filled").1.as_deref()
    }

    /// How many underlying analyses have actually run — the observable
    /// that memoization works (stays flat across repeated queries).
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }
}

/// Tests Eq. 7: does `b` have a single column that holds (approximately)
/// all the mass of every row? Returns that column's index if so.
///
/// `threshold` is the minimum per-row mass the column must hold
/// (paper's sensor 6: column (15,1) holds 0.67–1.0 per row; we default
/// callers to 0.5, i.e. the column is every active row's majority).
pub fn stuck_at_column(
    b: &StochasticMatrix,
    threshold: f64,
    active_rows: Option<&[usize]>,
) -> Option<usize> {
    let rows: Vec<usize> = match active_rows {
        Some(r) => r.to_vec(),
        None => (0..b.num_rows()).collect(),
    };
    if rows.is_empty() {
        return None;
    }
    (0..b.num_cols()).find(|&k| rows.iter().all(|&i| b[(i, k)] >= threshold))
}

/// Extracts the correct-state → symbol association implied by `b`: for
/// each active row, the column holding at least `threshold` of its mass.
///
/// Returns `None` for the whole association if any active row lacks a
/// dominant column, or if two rows share one (not one-to-one) — the
/// precondition for the paper's ratio/difference tests.
pub fn one_to_one_association(
    b: &StochasticMatrix,
    threshold: f64,
    active_rows: Option<&[usize]>,
) -> Option<Vec<(usize, usize)>> {
    let rows: Vec<usize> = match active_rows {
        Some(r) => r.to_vec(),
        None => (0..b.num_rows()).collect(),
    };
    let mut pairs = Vec::with_capacity(rows.len());
    let mut used = vec![false; b.num_cols()];
    for &i in &rows {
        let row = b.row(i);
        let (k, &mass) = row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
        if mass < threshold || used[k] {
            return None;
        }
        used[k] = true;
        pairs.push((i, k));
    }
    Some(pairs)
}

/// Summary statistics (mean, variance) of a slice — used for the
/// ratio/difference constancy tests on associated state attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanVar {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub var: f64,
}

/// Mean row-wise L1 distance between two equally shaped observation
/// matrices under the best *hidden-state* (row) permutation. Hidden
/// states are anonymous in unsupervised estimation, but observation
/// symbols are observed and keep their identity, so only rows permute.
///
/// Exhaustive over permutations — intended for the small state counts
/// of this domain (≤ 8; `8! = 40320` candidates).
///
/// # Panics
///
/// Panics if the shapes differ or the row count exceeds 8.
pub fn aligned_b_distance(estimate: &StochasticMatrix, truth: &StochasticMatrix) -> f64 {
    assert_eq!(estimate.num_rows(), truth.num_rows(), "row shape");
    assert_eq!(estimate.num_cols(), truth.num_cols(), "col shape");
    let m = truth.num_rows();
    assert!(m <= 8, "exhaustive alignment is limited to 8 states");
    let n = truth.num_cols();
    let mut best = f64::INFINITY;
    permutations(m, &mut |p| {
        let mut err = 0.0;
        for i in 0..m {
            for k in 0..n {
                err += (estimate[(p[i], k)] - truth[(i, k)]).abs();
            }
        }
        best = best.min(err / m as f64);
    });
    best
}

/// Calls `f` with every permutation of `0..n` (Heap's algorithm).
fn permutations(n: usize, f: &mut impl FnMut(&[usize])) {
    fn heaps(k: usize, arr: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if k <= 1 {
            f(arr);
            return;
        }
        for i in 0..k {
            heaps(k - 1, arr, f);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr: Vec<usize> = (0..n).collect();
    heaps(n, &mut arr, f);
}

/// Computes mean and population variance of `xs`; `None` when empty.
pub fn mean_var(xs: &[f64]) -> Option<MeanVar> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    Some(MeanVar { mean, var })
}

#[cfg(test)]
#[path = "../../../tests/support/seeded.rs"]
mod seeded;

#[cfg(test)]
mod tests {
    use super::*;

    fn b_identityish() -> StochasticMatrix {
        // Overlap pattern mirroring the paper's Table 2: adjacent states
        // share mass in a single column only.
        StochasticMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.11, 0.89, 0.0],
            vec![0.0, 0.17, 0.83],
        ])
        .unwrap()
    }

    #[test]
    fn near_identity_is_orthogonal() {
        let r = OrthogonalityReport::analyze(&b_identityish(), OrthoTolerance::default(), None);
        assert!(r.is_orthogonal(), "{r:?}");
    }

    #[test]
    fn deletion_signature_breaks_row_orthogonality() {
        // Two hidden states mapped to the same observable state (paper
        // Table 6: rows (29,56) and (20,71)).
        let b = StochasticMatrix::from_rows(vec![
            vec![0.001, 0.999, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let r = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(!r.rows_orthogonal);
        assert!(r
            .row_violations
            .iter()
            .any(|v| v.first == 0 && v.second == 1));
        // Columns remain orthogonal in this scenario... col 1 receives
        // mass from two rows but its *pairwise* products with other
        // columns stay ~0.
        assert!(r.cols_orthogonal);
    }

    #[test]
    fn creation_signature_breaks_col_orthogonality() {
        // One hidden state split over two observables (paper Table 7:
        // row (12,95) splits 0.35/0.65 over columns (12,95) and (25,69)).
        let b = StochasticMatrix::from_rows(vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.3546, 0.6454]])
            .unwrap();
        let r = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(!r.cols_orthogonal);
        assert!(r
            .col_violations
            .iter()
            .any(|v| v.first == 1 && v.second == 2));
        // The split row is also weak (0.3546² + 0.6454² ≈ 0.54 < 0.8).
        assert!(!r.rows_orthogonal);
        assert!(r.weak_rows.contains(&1));
    }

    #[test]
    fn active_rows_mask_ignores_prior_rows() {
        // Row 2 is an untouched identity prior sharing its column with
        // row 0 — with the mask it must not trigger a violation.
        let b = StochasticMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0]])
            .unwrap();
        let all = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(!all.rows_orthogonal);
        let masked = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), Some(&[0, 1]));
        assert!(masked.is_orthogonal());
    }

    #[test]
    fn stuck_at_detects_all_ones_column() {
        // Paper Table 3 shape: column 1 ≈ all ones.
        let b = StochasticMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.9, 0.1],
            vec![0.33, 0.67, 0.0],
            vec![0.01, 0.99, 0.0],
        ])
        .unwrap();
        assert_eq!(stuck_at_column(&b, 0.5, None), Some(1));
    }

    #[test]
    fn stuck_at_rejects_orthogonal_matrix() {
        assert_eq!(stuck_at_column(&b_identityish(), 0.5, None), None);
    }

    #[test]
    fn stuck_at_respects_active_rows() {
        let b = StochasticMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(stuck_at_column(&b, 0.9, Some(&[0])), Some(0));
        assert_eq!(stuck_at_column(&b, 0.9, None), None);
        assert_eq!(stuck_at_column(&b, 0.9, Some(&[])), None);
    }

    #[test]
    fn association_one_to_one() {
        // Paper Table 5 shape: shifted one-to-one mapping.
        let b = StochasticMatrix::from_rows(vec![
            vec![0.0, 0.86, 0.0, 0.14],
            vec![0.0, 0.0, 0.85, 0.15],
            vec![0.87, 0.0, 0.0, 0.13],
        ])
        .unwrap();
        let assoc = one_to_one_association(&b, 0.5, None).unwrap();
        assert_eq!(assoc, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn association_fails_on_shared_column() {
        let b = StochasticMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        assert_eq!(one_to_one_association(&b, 0.5, None), None);
    }

    #[test]
    fn association_fails_on_weak_row() {
        let b = StochasticMatrix::from_rows(vec![vec![0.4, 0.3, 0.3]]).unwrap();
        assert_eq!(one_to_one_association(&b, 0.5, None), None);
    }

    #[test]
    fn mean_var_basics() {
        let mv = mean_var(&[1.0, 2.0, 3.0]).unwrap();
        assert!((mv.mean - 2.0).abs() < 1e-12);
        assert!((mv.var - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean_var(&[]), None);
        let constant = mean_var(&[5.0; 10]).unwrap();
        assert_eq!(constant.var, 0.0);
    }

    #[test]
    fn aligned_distance_zero_for_row_permuted_self() {
        let b = StochasticMatrix::from_rows(vec![
            vec![0.9, 0.1, 0.0],
            vec![0.0, 0.8, 0.2],
            vec![0.3, 0.0, 0.7],
        ])
        .unwrap();
        assert!(aligned_b_distance(&b, &b) < 1e-12);
        // Relabel hidden states (rows) only: distance stays 0.
        let p = [2usize, 0, 1];
        let mut rows = vec![vec![0.0; 3]; 3];
        for i in 0..3 {
            for k in 0..3 {
                rows[p[i]][k] = b[(i, k)];
            }
        }
        let perm_b = StochasticMatrix::from_rows(rows).unwrap();
        assert!(aligned_b_distance(&perm_b, &b) < 1e-12);
    }

    #[test]
    fn aligned_distance_detects_real_difference() {
        let i3 = StochasticMatrix::identity(3).unwrap();
        let u3 = StochasticMatrix::uniform(3, 3).unwrap();
        // Each row differs by |1-1/3| + 2·(1/3) = 4/3 under any perm.
        let d = aligned_b_distance(&u3, &i3);
        assert!((d - 4.0 / 3.0).abs() < 1e-9, "d {d}");
    }

    #[test]
    fn aligned_distance_works_on_rectangular() {
        let a = StochasticMatrix::uniform(2, 3).unwrap();
        let b = StochasticMatrix::uniform(2, 3).unwrap();
        assert!(aligned_b_distance(&a, &b) < 1e-12);
    }

    #[test]
    fn structure_cache_hits_on_same_generation() {
        let b = b_identityish();
        let mut cache = StructureCache::new();
        let tol = OrthoTolerance::default();
        let first = cache.orthogonality(1, &b, tol, None).clone();
        assert_eq!(cache.recomputes(), 1);
        for _ in 0..10 {
            let again = cache.orthogonality(1, &b, tol, None);
            assert_eq!(*again, first);
        }
        assert_eq!(cache.recomputes(), 1, "repeated queries must be cached");
        // A new generation forces exactly one recomputation.
        cache.orthogonality(2, &b, tol, None);
        assert_eq!(cache.recomputes(), 2);
    }

    #[test]
    fn structure_cache_distinguishes_parameters() {
        let b = StochasticMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.4, 0.6]]).unwrap();
        let mut cache = StructureCache::new();
        assert_eq!(cache.stuck_at(1, &b, 0.5, None), Some(1));
        assert_eq!(cache.stuck_at(1, &b, 0.5, None), Some(1));
        assert_eq!(cache.recomputes(), 1);
        // Different threshold is a different query, not a cache hit.
        assert_eq!(cache.stuck_at(1, &b, 0.9, None), None);
        assert_eq!(cache.recomputes(), 2);
        // Different active mask likewise.
        assert_eq!(cache.stuck_at(1, &b, 0.9, Some(&[0])), Some(1));
        assert_eq!(cache.recomputes(), 3);
    }

    #[test]
    fn structure_cache_association_matches_uncached() {
        let b = StochasticMatrix::from_rows(vec![
            vec![0.0, 0.86, 0.0, 0.14],
            vec![0.0, 0.0, 0.85, 0.15],
            vec![0.87, 0.0, 0.0, 0.13],
        ])
        .unwrap();
        let mut cache = StructureCache::new();
        let direct = one_to_one_association(&b, 0.5, None);
        assert_eq!(
            cache.association(7, &b, 0.5, None).map(<[_]>::to_vec),
            direct
        );
        cache.association(7, &b, 0.5, None);
        assert_eq!(cache.recomputes(), 1);
    }

    #[test]
    fn paper_table2_bco_is_orthogonal() {
        // Exact matrix from paper Table 2 (sensor 6, B^CO).
        let b = StochasticMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.11, 0.0, 0.89, 0.0],
            vec![0.0, 0.0, 0.0, 0.17, 0.83],
        ])
        .unwrap();
        let r = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(r.is_orthogonal(), "{r:?}");
    }

    #[test]
    fn paper_table3_bce_is_stuck_at() {
        // Exact matrix from paper Table 3 (sensor 6, B^CE), with the ⊥
        // column dropped as the paper prescribes.
        let b = StochasticMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.9, 0.1],
            vec![0.33, 0.67, 0.0],
            vec![0.01, 0.99, 0.0],
        ])
        .unwrap();
        let no_bot = b.drop_columns(&[2]).unwrap();
        assert_eq!(stuck_at_column(&no_bot, 0.5, None), Some(1));
    }

    #[test]
    fn paper_table6_deletion_rows_non_orthogonal() {
        // Exact matrix from paper Table 6 (Dynamic Deletion).
        let b = StochasticMatrix::from_rows(vec![
            vec![0.001, 0.999, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.999, 0.0, 0.0, 0.001],
            vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let r = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(!r.rows_orthogonal);
        assert!(r.cols_orthogonal);
    }

    #[test]
    fn paper_table7_creation_cols_non_orthogonal() {
        // Exact matrix from paper Table 7 (Dynamic Creation).
        let b = StochasticMatrix::from_rows(vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.3546, 0.6454],
        ])
        .unwrap();
        let r = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(!r.cols_orthogonal);
    }

    /// The analysis as it was before it took only the Gram entries it
    /// reads: the full row Gram, a copy of each active row, and a
    /// column Gram of nested vectors.
    fn full_gram_report(
        b: &StochasticMatrix,
        tol: OrthoTolerance,
        active_rows: Option<&[usize]>,
    ) -> OrthogonalityReport {
        let rows: Vec<usize> = match active_rows {
            Some(r) => r.to_vec(),
            None => (0..b.num_rows()).collect(),
        };
        let rg = b.row_gram();
        let (mut row_violations, mut weak_rows) = (Vec::new(), Vec::new());
        let mut max_row_offdiag: f64 = 0.0;
        for (ai, &i) in rows.iter().enumerate() {
            if rg[i][i] < tol.min_diag {
                weak_rows.push(i);
            }
            for &j in rows.iter().skip(ai + 1) {
                max_row_offdiag = max_row_offdiag.max(rg[i][j]);
                if rg[i][j] > tol.max_offdiag {
                    let mass = rg[i][j];
                    row_violations.push(NonOrthogonalPair {
                        first: i,
                        second: j,
                        mass,
                    });
                }
            }
        }
        let reduced: Vec<Vec<f64>> = rows.iter().map(|&i| b.row(i).to_vec()).collect();
        let ncols = b.num_cols();
        let mut cg = vec![vec![0.0; ncols]; ncols];
        for r in &reduced {
            for i in 0..ncols {
                for j in i..ncols {
                    cg[i][j] += r[i] * r[j];
                }
            }
        }
        let mut col_violations = Vec::new();
        for i in 0..ncols {
            for j in i + 1..ncols {
                if cg[i][j] > tol.max_offdiag {
                    let mass = cg[i][j];
                    col_violations.push(NonOrthogonalPair {
                        first: i,
                        second: j,
                        mass,
                    });
                }
            }
        }
        OrthogonalityReport {
            rows_orthogonal: row_violations.is_empty() && weak_rows.is_empty(),
            cols_orthogonal: col_violations.is_empty(),
            row_violations,
            col_violations,
            weak_rows,
            max_row_offdiag,
        }
    }

    /// A report's every field, floats by their bits.
    fn bits(r: &OrthogonalityReport) -> impl PartialEq + std::fmt::Debug {
        let pairs = |v: &[NonOrthogonalPair]| -> Vec<(usize, usize, u64)> {
            v.iter()
                .map(|p| (p.first, p.second, p.mass.to_bits()))
                .collect()
        };
        (
            (r.rows_orthogonal, r.cols_orthogonal, r.weak_rows.clone()),
            (pairs(&r.row_violations), pairs(&r.col_violations)),
            r.max_row_offdiag.to_bits(),
        )
    }

    /// Over seeded stochastic matrices (rows of sparse random weights,
    /// point masses and near-ties among them), every tolerance on a grid
    /// and active rows absent, in order, shuffled or repeated, the
    /// analysis equals the full-Gram one bit for bit.
    #[test]
    fn only_the_read_gram_entries_give_the_full_gram_report() {
        let case = |seed: u64| -> Result<(), String> {
            let mut rng = seeded::TestRng::new(seed);
            let (m, n) = (rng.usize_in(1, 8), rng.usize_in(1, 8));
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    let mut row = rng.vec(n, |rng| match rng.usize_in(0, 4) {
                        0 => 0.0,
                        1 => 0.25 * rng.usize_in(1, 5) as f64,
                        _ => rng.next_f64(),
                    });
                    if row.iter().sum::<f64>() == 0.0 {
                        row[rng.usize_in(0, n)] = 1.0;
                    }
                    let sum: f64 = row.iter().sum();
                    row.iter_mut().for_each(|x| *x /= sum);
                    row
                })
                .collect();
            let b = StochasticMatrix::from_rows(rows).map_err(|e| e.to_string())?;
            let mut active: Vec<usize> = (0..m).filter(|_| rng.bool()).collect();
            for i in (1..active.len()).rev() {
                active.swap(i, rng.usize_in(0, i + 1));
            }
            if rng.usize_in(0, 4) == 0 {
                active.push(rng.usize_in(0, m));
            }
            let tol = OrthoTolerance {
                max_offdiag: 0.05 * rng.usize_in(0, 21) as f64,
                min_diag: 0.05 * rng.usize_in(0, 21) as f64,
            };
            for rows in [None, Some(&active[..])] {
                let (got, want) = (
                    OrthogonalityReport::analyze(&b, tol, rows),
                    full_gram_report(&b, tol, rows),
                );
                if bits(&got) != bits(&want) {
                    return Err(format!("rows {rows:?}: {got:?}, full Gram {want:?}"));
                }
            }
            Ok(())
        };
        let replay = seeded::Replay {
            var: "ORTHO_GRAM_SEED",
            package: "sentinet-hmm",
            target: "--lib",
            test: "only_the_read_gram_entries_give_the_full_gram_report",
        };
        replay.for_each_seed(2_000, case);
    }
}
