//! Row-stochastic matrices.
//!
//! The HMM parameters **A** (state transition) and **B** (observation
//! symbol) are row-stochastic: every row is a probability distribution.
//! [`StochasticMatrix`] enforces this invariant at construction and
//! preserves it under the online exponential updates used by the paper
//! (§3.2), which are closed over the probability simplex.
//!
//! # Layout
//!
//! Storage is row-major with a row *stride* that may exceed the column
//! count: row `i` occupies `data[i·stride .. i·stride + cols]` and the
//! `stride − cols` cells behind it are padding. The stride is not
//! stored: it is the column count rounded up to a multiple of
//! `STRIDE_QUANTUM`. Adding a column ([`StochasticMatrix::grow`], once
//! per spawned model state and per sensor) is therefore a bump of `cols`
//! into the padding, and adding a row is an append that `Vec` growth
//! amortises; every row is copied only when the columns outgrow the
//! stride, once per `STRIDE_QUANTUM` columns.
//!
//! Padding invariant: every padding cell is `+0.0`, always. A column
//! bump exposes padding as the new column, which must read as the zero
//! a reallocating grow would have written; `reinforce` and every other
//! writer touch the logical cells only. The `check-invariants` feature
//! asserts it after each mutation.
//!
//! Nothing outside this module can observe the stride: accessors return
//! logical rows, `export_state`/`from_rows` speak `Vec<Vec<f64>>`, and
//! equality is written by hand over the logical rows, so a matrix
//! rebuilt from a checkpoint is `==` to the grown matrix it was taken
//! from whatever spare capacity either holds.

use crate::error::{HmmError, Result};
use std::fmt;
use std::ops::Index;

/// Tolerance used when validating that a distribution sums to one.
pub const STOCHASTIC_TOL: f64 = 1e-9;

/// Row strides are multiples of this many cells (see the module
/// header): at most `STRIDE_QUANTUM − 1` padding cells a row, one full
/// copy per `STRIDE_QUANTUM` added columns.
const STRIDE_QUANTUM: usize = 8;

/// The stride a matrix of `cols` columns is stored with.
fn stride_for(cols: usize) -> usize {
    cols.next_multiple_of(STRIDE_QUANTUM)
}

/// Validates that `v` is a probability distribution: entries within
/// `[-tol, 1 + tol]` and summing to one within `tol`.
///
/// # Errors
///
/// Returns [`HmmError::NotStochastic`] describing `what` otherwise.
pub fn validate_distribution(v: &[f64], what: &str, tol: f64) -> Result<()> {
    let sum: f64 = v.iter().sum();
    if (sum - 1.0).abs() > tol
        || v.iter()
            .any(|&x| !(-tol..=1.0 + tol).contains(&x) || x.is_nan())
    {
        return Err(HmmError::NotStochastic {
            what: what.to_string(),
            sum,
        });
    }
    Ok(())
}

/// A dense row-stochastic matrix: every row sums to one.
///
/// Rows are probability distributions over columns. The type is used
/// both for HMM transition matrices (square) and observation matrices
/// (rectangular, states × symbols).
///
/// # Examples
///
/// ```
/// use sentinet_hmm::StochasticMatrix;
///
/// # fn main() -> Result<(), sentinet_hmm::HmmError> {
/// let m = StochasticMatrix::from_rows(vec![
///     vec![0.9, 0.1],
///     vec![0.4, 0.6],
/// ])?;
/// assert_eq!(m[(0, 1)], 0.1);
/// assert_eq!(m.num_rows(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StochasticMatrix {
    rows: usize,
    cols: usize,
    /// Row-major storage, `rows × stride()`; invariants: each row sums
    /// to 1 within tolerance over its first `cols` cells, the rest of
    /// it is `+0.0`.
    data: Vec<f64>,
}

/// Equality of the logical matrices: same shape, same entries (see the
/// module header for why the storage does not take part).
impl PartialEq for StochasticMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.iter_rows().eq(other.iter_rows())
    }
}

impl StochasticMatrix {
    /// Creates a matrix from explicit rows, validating stochasticity.
    ///
    /// # Errors
    ///
    /// - [`HmmError::EmptyModel`] if there are no rows or no columns.
    /// - [`HmmError::DimensionMismatch`] if the rows have uneven lengths.
    /// - [`HmmError::NotStochastic`] if any row fails validation.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(HmmError::EmptyModel);
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(HmmError::DimensionMismatch {
                    what: format!("matrix row {i}"),
                    expected: cols,
                    actual: r.len(),
                });
            }
            validate_distribution(r, &format!("matrix row {i}"), STOCHASTIC_TOL)?;
        }
        let mut m = Self::zeroed(rows.len(), cols);
        for (cells, r) in m.data.chunks_exact_mut(stride_for(cols)).zip(&rows) {
            cells[..cols].copy_from_slice(r);
        }
        Ok(m)
    }

    /// `rows × cols` cells of `+0.0` at the stride of `cols`: storage
    /// for a constructor to fill, not yet a stochastic matrix.
    fn zeroed(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * stride_for(cols)],
        }
    }

    /// Cells from one row's start to the next.
    fn stride(&self) -> usize {
        stride_for(self.cols)
    }

    /// Creates an identity matrix of size `n`, the initialization the
    /// paper recommends for online HMM estimation (§3.2).
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::EmptyModel`] if `n == 0`.
    pub fn identity(n: usize) -> Result<Self> {
        Self::diagonal_like(n, n)
    }

    /// Creates a `rows × cols` matrix with every row uniform.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::EmptyModel`] if either dimension is zero.
    pub fn uniform(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(HmmError::EmptyModel);
        }
        let mut m = Self::zeroed(rows, cols);
        for cells in m.data.chunks_exact_mut(stride_for(cols)) {
            cells[..cols].fill(1.0 / cols as f64);
        }
        Ok(m)
    }

    /// Creates a rectangular matrix whose row `i` puts all mass on
    /// column `min(i, cols - 1)`.
    ///
    /// This generalizes [`StochasticMatrix::identity`] to non-square
    /// shapes, used to initialize observation matrices online.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::EmptyModel`] if either dimension is zero.
    pub fn diagonal_like(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(HmmError::EmptyModel);
        }
        let mut m = Self::zeroed(rows, cols);
        for (i, cells) in m.data.chunks_exact_mut(stride_for(cols)).enumerate() {
            cells[i.min(cols - 1)] = 1.0;
        }
        Ok(m)
    }

    /// Number of rows (distributions).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (outcomes per distribution).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.stride()..][..self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.num_cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        let stride = self.stride();
        (0..self.rows).map(|i| self.data[i * stride + j]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data
            .chunks_exact(self.stride())
            .map(|cells| &cells[..self.cols])
    }

    /// Applies the paper's exponential "move mass toward outcome `k`"
    /// update to row `i`:
    ///
    /// `row[j] ← (1 − η)·row[j] + η·δ_{jk}`
    ///
    /// The update is closed over the probability simplex, so the
    /// stochasticity invariant is preserved exactly (up to floating
    /// point) for any `η ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// - [`HmmError::StateOutOfRange`] if `i` is not a valid row.
    /// - [`HmmError::SymbolOutOfRange`] if `k` is not a valid column.
    /// - [`HmmError::InvalidParameter`] if `eta` is outside `(0, 1)`.
    pub fn reinforce(&mut self, i: usize, k: usize, eta: f64) -> Result<()> {
        if i >= self.rows {
            return Err(HmmError::StateOutOfRange {
                state: i,
                num_states: self.rows,
            });
        }
        if k >= self.cols {
            return Err(HmmError::SymbolOutOfRange {
                symbol: k,
                num_symbols: self.cols,
            });
        }
        if !(eta > 0.0 && eta < 1.0) {
            return Err(HmmError::InvalidParameter {
                name: "eta",
                value: eta,
                range: "(0, 1)",
            });
        }
        let at = i * self.stride();
        let row = &mut self.data[at..at + self.cols];
        for (j, x) in row.iter_mut().enumerate() {
            *x = (1.0 - eta) * *x + if j == k { eta } else { 0.0 };
        }
        self.assert_invariants("reinforce");
        Ok(())
    }

    /// Asserts the row-stochastic invariant (finite entries, every row
    /// summing to one within [`STOCHASTIC_TOL`]) and the padding
    /// invariant (every cell behind a row is `+0.0`) after a mutation.
    /// Compiles to nothing unless the `check-invariants` feature is on;
    /// `xtask analyze` runs the test suite with it enabled.
    #[cfg(feature = "check-invariants")]
    fn assert_invariants(&self, context: &str) {
        debug_assert_eq!(
            self.data.len(),
            self.rows * self.stride(),
            "{context}: storage"
        );
        for (i, cells) in self.data.chunks_exact(self.stride()).enumerate() {
            let (r, padding) = (&cells[..self.cols], &cells[self.cols..]);
            debug_assert!(
                r.iter().all(|x| x.is_finite()),
                "{context}: row {i} contains a non-finite entry: {r:?}"
            );
            let sum: f64 = r.iter().sum();
            debug_assert!(
                (sum - 1.0).abs() <= STOCHASTIC_TOL,
                "{context}: row {i} sums to {sum} (drift {:e})",
                (sum - 1.0).abs()
            );
            debug_assert!(
                padding.iter().all(|x| x.to_bits() == 0),
                "{context}: row {i} has a non-zero padding cell: {padding:?}"
            );
        }
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn assert_invariants(&self, _context: &str) {}

    /// Grows the matrix by one row and one column (for square use) or by
    /// the requested amounts, placing the new row's mass on the new last
    /// column when a column is added, or uniformly otherwise.
    ///
    /// Used when the online clustering module spawns a new model state:
    /// the HMMs tracking the environment must grow accordingly. Columns
    /// are added in place while they fit the row stride and rows are
    /// appended, so a one-state grow costs one row, amortised; every
    /// row moves only when the columns outgrow the stride (see the
    /// module header).
    pub fn grow(&mut self, add_rows: usize, add_cols: usize) {
        let cols = self.cols + add_cols;
        if cols > self.stride() {
            self.restride(cols, self.rows + add_rows);
        }
        // Within the stride the new columns are padding until now, and
        // padding is zero.
        self.cols = cols;
        let stride = self.stride();
        for r in 0..add_rows {
            let at = self.data.len();
            self.data.resize(at + stride, 0.0);
            let row = &mut self.data[at..at + cols];
            if add_cols > 0 {
                // New rows concentrate on the first newly added column:
                // a freshly spawned state has only been seen emitting its
                // own symbol.
                row[cols - add_cols + r.min(add_cols - 1)] = 1.0;
            } else {
                row.fill(1.0 / cols as f64);
            }
            self.rows += 1;
        }
        self.assert_invariants("grow");
    }

    /// Moves the rows to the stride of `cols` columns, in storage with
    /// room for `rows` of them. The caller sets `self.cols` next: until
    /// then the storage and the column count disagree.
    fn restride(&mut self, cols: usize, rows: usize) {
        let stride = stride_for(cols);
        let mut data = Vec::with_capacity(rows * stride);
        for r in self.iter_rows() {
            data.extend_from_slice(r);
            data.resize(data.len() + stride - r.len(), 0.0);
        }
        self.data = data;
    }

    /// Returns a copy of the matrix with the listed columns removed and
    /// each row renormalized. Rows whose remaining mass is zero become
    /// uniform.
    ///
    /// Used to drop the fictitious ⊥ column of `B^CE` before structural
    /// analysis, as the paper prescribes ("this fictitious state is not
    /// taken into account during classification").
    pub fn drop_columns(&self, drop: &[usize]) -> Result<Self> {
        let keep: Vec<usize> = (0..self.cols).filter(|j| !drop.contains(j)).collect();
        if keep.is_empty() {
            return Err(HmmError::EmptyModel);
        }
        let mut rows = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let r = self.row(i);
            let mut nr: Vec<f64> = keep.iter().map(|&j| r[j]).collect();
            let s: f64 = nr.iter().sum();
            if s > 0.0 {
                nr.iter_mut().for_each(|x| *x /= s);
            } else {
                let u = 1.0 / nr.len() as f64;
                nr.iter_mut().for_each(|x| *x = u);
            }
            rows.push(nr);
        }
        Self::from_rows(rows)
    }

    /// Largest column index in each row (the mode of each distribution).
    pub fn row_argmax(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Re-validates the stochasticity invariant with a looser tolerance,
    /// useful in debug assertions after long online-update runs.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::NotStochastic`] naming the first bad row.
    pub fn check(&self, tol: f64) -> Result<()> {
        for i in 0..self.rows {
            validate_distribution(self.row(i), &format!("matrix row {i}"), tol)?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for StochasticMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.stride() + j]
    }
}

impl fmt::Display for StochasticMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.iter_rows() {
            for (j, x) in r.iter().enumerate() {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{x:.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl StochasticMatrix {
    /// Computes the Gram matrix of the rows: `G[i][j] = Σ_k m[i][k]·m[j][k]`.
    ///
    /// The paper's orthogonality tests (§3.4) inspect the off-diagonal
    /// and diagonal entries of this matrix for **B**;
    /// `OrthogonalityReport::analyze` takes only the entries it reads,
    /// and this whole matrix is its tests' oracle.
    pub(crate) fn row_gram(&self) -> Vec<Vec<f64>> {
        let mut g = vec![vec![0.0; self.rows]; self.rows];
        for i in 0..self.rows {
            for j in i..self.rows {
                let dot: f64 = self
                    .row(i)
                    .iter()
                    .zip(self.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                g[i][j] = dot;
                g[j][i] = dot;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2() -> StochasticMatrix {
        StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.25, 0.75]]).unwrap()
    }

    #[test]
    fn from_rows_valid() {
        let m = m2();
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m[(1, 1)], 0.75);
    }

    #[test]
    fn from_rows_rejects_bad_sum() {
        let err = StochasticMatrix::from_rows(vec![vec![0.5, 0.4]]).unwrap_err();
        assert!(matches!(err, HmmError::NotStochastic { .. }));
    }

    #[test]
    fn from_rows_rejects_negative() {
        let err = StochasticMatrix::from_rows(vec![vec![1.2, -0.2]]).unwrap_err();
        assert!(matches!(err, HmmError::NotStochastic { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = StochasticMatrix::from_rows(vec![vec![1.0], vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(err, HmmError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(
            StochasticMatrix::from_rows(vec![]).unwrap_err(),
            HmmError::EmptyModel
        );
        assert_eq!(
            StochasticMatrix::from_rows(vec![vec![]]).unwrap_err(),
            HmmError::EmptyModel
        );
    }

    #[test]
    fn identity_is_stochastic() {
        let m = StochasticMatrix::identity(4).unwrap();
        m.check(1e-12).unwrap();
        assert_eq!(m[(2, 2)], 1.0);
        assert_eq!(m[(2, 3)], 0.0);
    }

    #[test]
    fn uniform_rows() {
        let m = StochasticMatrix::uniform(2, 5).unwrap();
        assert!((m[(1, 3)] - 0.2).abs() < 1e-12);
        m.check(1e-12).unwrap();
    }

    #[test]
    fn diagonal_like_rectangular() {
        let m = StochasticMatrix::diagonal_like(4, 2).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 1)], 1.0);
        // Rows beyond the column count saturate at the last column.
        assert_eq!(m[(3, 1)], 1.0);
        m.check(1e-12).unwrap();
    }

    #[test]
    fn reinforce_moves_mass() {
        let mut m = StochasticMatrix::identity(2).unwrap();
        m.reinforce(0, 1, 0.5).unwrap();
        assert!((m[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((m[(0, 1)] - 0.5).abs() < 1e-12);
        m.check(1e-12).unwrap();
    }

    #[test]
    fn reinforce_rejects_bad_eta() {
        let mut m = StochasticMatrix::identity(2).unwrap();
        assert!(matches!(
            m.reinforce(0, 0, 0.0),
            Err(HmmError::InvalidParameter { .. })
        ));
        assert!(matches!(
            m.reinforce(0, 0, 1.0),
            Err(HmmError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn reinforce_rejects_out_of_range() {
        let mut m = StochasticMatrix::identity(2).unwrap();
        assert!(matches!(
            m.reinforce(5, 0, 0.5),
            Err(HmmError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            m.reinforce(0, 5, 0.5),
            Err(HmmError::SymbolOutOfRange { .. })
        ));
    }

    #[test]
    fn row_gram_of_identity_is_identity() {
        let m = StochasticMatrix::identity(3).unwrap();
        let g = m.row_gram();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g[i][j], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn grow_square() {
        let mut m = StochasticMatrix::identity(2).unwrap();
        m.grow(1, 1);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 3);
        assert_eq!(m[(2, 2)], 1.0);
        m.check(1e-12).unwrap();
    }

    #[test]
    fn grow_rows_only_uniform() {
        let mut m = StochasticMatrix::identity(2).unwrap();
        m.grow(1, 0);
        assert_eq!(m.num_rows(), 3);
        assert!((m[(2, 0)] - 0.5).abs() < 1e-12);
        m.check(1e-12).unwrap();
    }

    #[test]
    fn grow_across_the_stride_keeps_entries_and_equality() {
        // 6 → 19 columns crosses the stride twice (8, 16); the grown
        // matrix must read exactly like one built at its final shape.
        let mut m = StochasticMatrix::uniform(6, 6).unwrap();
        m.reinforce(2, 5, 0.25).unwrap();
        let before: Vec<Vec<f64>> = m.iter_rows().map(<[f64]>::to_vec).collect();
        for _ in 0..13 {
            m.grow(1, 1);
        }
        assert_eq!((m.num_rows(), m.num_cols()), (19, 19));
        for (i, old) in before.iter().enumerate() {
            assert_eq!(&m.row(i)[..6], &old[..]);
            assert!(m.row(i)[6..].iter().all(|x| x.to_bits() == 0));
        }
        for i in 6..19 {
            assert_eq!(m[(i, i)], 1.0);
            assert_eq!(m.col(i)[i], 1.0);
        }
        let rebuilt =
            StochasticMatrix::from_rows(m.iter_rows().map(<[f64]>::to_vec).collect()).unwrap();
        assert_eq!(rebuilt, m);
        let mut other = rebuilt.clone();
        other.reinforce(18, 0, 0.5).unwrap();
        assert_ne!(other, m);
        m.reinforce(18, 0, 0.5).unwrap();
        assert_eq!(other, m);
    }

    #[test]
    fn drop_columns_renormalizes() {
        let m = StochasticMatrix::from_rows(vec![vec![0.5, 0.25, 0.25]]).unwrap();
        let d = m.drop_columns(&[2]).unwrap();
        assert_eq!(d.num_cols(), 2);
        assert!((d[(0, 0)] - 2.0 / 3.0).abs() < 1e-12);
        d.check(1e-12).unwrap();
    }

    #[test]
    fn drop_columns_zero_row_becomes_uniform() {
        let m = StochasticMatrix::from_rows(vec![vec![0.0, 0.0, 1.0]]).unwrap();
        let d = m.drop_columns(&[2]).unwrap();
        assert!((d[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drop_all_columns_is_error() {
        let m = StochasticMatrix::identity(2).unwrap();
        assert_eq!(m.drop_columns(&[0, 1]).unwrap_err(), HmmError::EmptyModel);
    }

    #[test]
    fn row_argmax_modes() {
        let m = m2();
        assert_eq!(m.row_argmax(), vec![0, 1]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!m2().to_string().is_empty());
    }
}
