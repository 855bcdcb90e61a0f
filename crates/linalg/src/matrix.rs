//! A minimal dense, row-major `f64` matrix.
//!
//! This is the single tabular container shared by every crate in the
//! workspace: datasets, model weights, and surrogate features all use it.
//! It favours simple, predictable code over BLAS-level performance; the
//! matrices in Auto-FP workloads are tall and skinny (up to ~500k rows but
//! rarely more than a few hundred columns), so row-major layout with
//! per-row slices is the access pattern that matters.

use std::fmt;

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * c);
        for r in rows {
            assert_eq!(r.len(), c, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { rows: n, cols: c, data }
    }

    /// Build a single-column matrix from a vector.
    pub fn column_vector(values: &[f64]) -> Self {
        Self { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterate over rows as slices (`rows` empty slices when there are no
    /// columns).
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        self.rows_iter().map(|row| dot(row, v)).collect()
    }

    /// Select a subset of rows into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Select a subset of columns into a new matrix.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Apply a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Column means.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (`l2`) norm.
#[inline]
pub fn norm_l2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `l1` norm (sum of absolute values).
#[inline]
pub fn norm_l1(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).sum()
}

/// `max` norm (largest absolute value).
#[inline]
pub fn norm_max(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn set_writes_one_cell() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 7.0);
        assert_eq!(m.row(0), &[0.0, 7.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_small() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0, 2.0], vec![0.5, 0.0, -3.0]]);
        let v = vec![2.0, 3.0, 1.0];
        assert_eq!(a.matvec(&v), vec![1.0, -2.0]);
    }

    #[test]
    fn zero_column_matrix_has_empty_rows() {
        let m = Matrix::zeros(3, 0);
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[] as &[f64]; 3]);
        assert_eq!(m.matvec(&[]), vec![0.0; 3]);
        assert_eq!(Matrix::zeros(0, 2).rows_iter().count(), 0);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn col_means_simple() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.col_means(), vec![2.0, 20.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_l2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_l1(&[-3.0, 4.0]), 7.0);
        assert_eq!(norm_max(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::from_rows(&[vec![1.0, -2.0]]);
        m.map_inplace(f64::abs);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m.set(0, 1, f64::NAN);
        assert!(!m.is_finite());
    }
}
