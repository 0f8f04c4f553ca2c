//! Dense row-major `f64` matrix.
//!
//! [`Matrix`] is the single numerical container used across the workspace.
//! It stores its elements contiguously in row-major order, which matches the
//! access pattern of every algorithm in the reproduction (mini-batches are
//! rows; features are columns).
//!
//! All binary operations are shape-checked and panic on mismatch: shape
//! errors here are programming errors, not recoverable conditions, exactly
//! like out-of-bounds slice indexing.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Contiguous borrow of rows `[start, end)` — zero-copy thanks to the
    /// row-major layout. The backbone of shard-wise streaming passes.
    #[inline]
    pub fn row_block(&self, start: usize, end: usize) -> &[f64] {
        assert!(
            start <= end && end <= self.rows,
            "row_block {}..{} out of bounds ({} rows)",
            start,
            end,
            self.rows
        );
        &self.data[start * self.cols..end * self.cols]
    }

    /// Iterator over `(start_row, rows, block)` triples of at most
    /// `block_rows` rows each, in row order; the final block may be short.
    ///
    /// # Panics
    /// Panics if `block_rows` is zero.
    pub fn row_blocks(&self, block_rows: usize) -> impl Iterator<Item = (usize, usize, &[f64])> {
        assert!(block_rows > 0, "row_blocks: block_rows must be > 0");
        let (rows, cols) = (self.rows, self.cols);
        (0..rows.div_ceil(block_rows)).map(move |k| {
            let start = k * block_rows;
            let end = (start + block_rows).min(rows);
            (start, end - start, &self.data[start * cols..end * cols])
        })
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col {} out of bounds ({} cols)",
            j,
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` from a slice of length `rows`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert!(j < self.cols);
        assert_eq!(values.len(), self.rows, "set_col: length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Returns a new matrix whose rows are `self`'s rows at `indices`
    /// (indices may repeat; this is the bootstrap/subsample primitive).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data: self.transpose_map(|v| v),
        }
    }

    /// Row-major data of the transpose (`cols x rows`), each element passed
    /// through `conv` — e.g. `|v| v as f32` builds a narrowed transposed
    /// copy without a full-width intermediate.
    ///
    /// The copy walks square tiles so both the strided reads and the
    /// contiguous writes stay within a few cache lines; element values are
    /// moved, never combined, so the result does not depend on the tiling.
    pub fn transpose_map<T: Copy + Default>(&self, conv: impl Fn(f64) -> T) -> Vec<T> {
        const TILE: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = vec![T::default(); rows * cols];
        for i0 in (0..rows).step_by(TILE) {
            let i1 = (i0 + TILE).min(rows);
            for j0 in (0..cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(cols);
                for i in i0..i1 {
                    let src = &self.data[i * cols..(i + 1) * cols];
                    for j in j0..j1 {
                        out[j * rows + i] = conv(src[j]);
                    }
                }
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination `f(self, other)` into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(other, "zip");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place elementwise combination `self = f(self, other)`.
    pub fn zip_inplace(&mut self, other: &Matrix, f: impl Fn(f64, f64) -> f64) {
        self.assert_same_shape(other, "zip_inplace");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product — the paper's `⊙`.
    ///
    /// Unrolled four-wide like the GEMM kernels; elementwise ops have no
    /// cross-element accumulation, so unrolling cannot change any bit.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "hadamard");
        let mut out = self.clone();
        let mut ac = out.data.chunks_exact_mut(4);
        let mut bc = other.data.chunks_exact(4);
        for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
            a4[0] *= b4[0];
            a4[1] *= b4[1];
            a4[2] *= b4[2];
            a4[3] *= b4[3];
        }
        for (a, &b) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
            *a *= b;
        }
        out
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// `self += alpha * other` (AXPY), in place. Unrolled four-wide; each
    /// element is an independent fused chain, so this is bit-identical to
    /// the scalar loop.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        self.assert_same_shape(other, "axpy");
        let mut ac = self.data.chunks_exact_mut(4);
        let mut bc = other.data.chunks_exact(4);
        for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
            a4[0] += alpha * b4[0];
            a4[1] += alpha * b4[1];
            a4[2] += alpha * b4[2];
            a4[3] += alpha * b4[3];
        }
        for (a, &b) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element (NaN-ignoring; `-inf` if all NaN or empty).
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element (NaN-ignoring; `+inf` if all NaN or empty).
    pub fn min(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Frobenius inner product `tr(selfᵀ · other)` — `⟨P, C⟩` in the paper.
    pub fn frobenius_dot(&self, other: &Matrix) -> f64 {
        self.assert_same_shape(other, "frobenius_dot");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Per-row sums as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        self.rows_iter().map(|r| r.iter().sum()).collect()
    }

    /// Per-column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (acc, &v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        out
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let n = self.rows.max(1) as f64;
        self.col_sums().into_iter().map(|s| s / n).collect()
    }

    /// Adds `row` (length `cols`) to every row — broadcast add used for
    /// biases. Four-wide unrolled per row (bit-identical: elementwise).
    pub fn add_row_broadcast(&self, row: &[f64]) -> Matrix {
        assert_eq!(row.len(), self.cols, "add_row_broadcast: length mismatch");
        let mut out = self.clone();
        for r in out.data.chunks_exact_mut(self.cols.max(1)) {
            let mut ac = r.chunks_exact_mut(4);
            let mut bc = row.chunks_exact(4);
            for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
                a4[0] += b4[0];
                a4[1] += b4[1];
                a4[2] += b4[2];
                a4[3] += b4[3];
            }
            for (a, &b) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
                *a += b;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat: col mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns the columns in `cols_idx` as a new matrix (order preserved).
    pub fn select_cols(&self, cols_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols_idx.len());
        for i in 0..self.rows {
            for (k, &j) in cols_idx.iter().enumerate() {
                out[(i, k)] = self[(i, j)];
            }
        }
        out
    }

    /// True if any element is NaN.
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|v| v.is_nan())
    }

    fn assert_same_shape(&self, other: &Matrix, what: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "{}: shape mismatch {:?} vs {:?}",
            what,
            self.shape(),
            other.shape()
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let e = Matrix::eye(3);
        assert_eq!(e[(0, 0)], 1.0);
        assert_eq!(e[(1, 0)], 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_blocks_tile_the_matrix_in_order() {
        let m = Matrix::from_fn(7, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.row_block(2, 4), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        assert_eq!(m.row_block(0, 0), &[] as &[f64]);
        let blocks: Vec<_> = m.row_blocks(3).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].0, 0);
        assert_eq!(blocks[0].1, 3);
        assert_eq!(blocks[2], (6, 1, m.row_block(6, 7)));
        let reassembled: Vec<f64> = blocks.iter().flat_map(|b| b.2.iter().copied()).collect();
        assert_eq!(reassembled, m.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_block_rejects_bad_range() {
        let m = Matrix::zeros(3, 2);
        let _ = m.row_block(1, 4);
    }

    #[test]
    fn blocked_transpose_matches_the_definition_across_tile_edges() {
        // shapes straddle the 32-wide tile: partial tiles on both axes
        for (r, c) in [(0, 4), (1, 1), (31, 33), (64, 7), (70, 65)] {
            let m = Matrix::from_fn(r, c, |i, j| (i * 1000 + j) as f64 + 0.25);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)].to_bits(), m[(i, j)].to_bits());
                }
            }
            let t32 = m.transpose_map(|v| v as f32);
            let want: Vec<f32> = t.as_slice().iter().map(|&v| v as f32).collect();
            assert_eq!(t32, want, "{r}x{c}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(a.add(&b).sum(), 110.0);
        assert_eq!(b.sub(&a).sum(), 90.0);
        assert_eq!(a.hadamard(&b).as_slice(), &[10.0, 40.0, 90.0, 160.0]);
        assert_eq!(a.scale(2.0).sum(), 20.0);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.as_slice(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let _ = Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
        assert_eq!(m.col_means(), vec![2.5, 3.5, 4.5]);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
    }

    #[test]
    fn frobenius_dot_matches_trace_form() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        // tr(aᵀ b) = Σ a_ij b_ij
        assert_eq!(a.frobenius_dot(&b), 5.0 + 12.0 + 21.0 + 32.0);
    }

    #[test]
    fn select_rows_allows_repeats() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let s = m.select_rows(&[2, 2, 0]);
        assert_eq!(s.as_slice(), &[3.0, 3.0, 1.0]);
    }

    #[test]
    fn concat_shapes() {
        let a = Matrix::ones(2, 2);
        let b = Matrix::zeros(2, 3);
        let h = a.hcat(&b);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(1, 1)], 1.0);
        assert_eq!(h[(1, 4)], 0.0);

        let v = a.vcat(&Matrix::zeros(1, 2));
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v[(2, 0)], 0.0);
    }

    #[test]
    fn broadcast_bias_add() {
        let m = Matrix::zeros(3, 2).add_row_broadcast(&[1.0, -1.0]);
        assert_eq!(m.col(0), vec![1.0; 3]);
        assert_eq!(m.col(1), vec![-1.0; 3]);
    }

    #[test]
    fn nan_handling_in_extrema() {
        let m = Matrix::from_rows(&[&[f64::NAN, 2.0], &[1.0, f64::NAN]]);
        assert!(m.has_nan());
        assert_eq!(m.max(), 2.0);
        assert_eq!(m.min(), 1.0);
    }

    #[test]
    fn set_col_and_select_cols() {
        let mut m = Matrix::zeros(3, 3);
        m.set_col(1, &[7.0, 8.0, 9.0]);
        assert_eq!(m.col(1), vec![7.0, 8.0, 9.0]);
        let s = m.select_cols(&[1, 0]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.col(0), vec![7.0, 8.0, 9.0]);
        assert_eq!(s.col(1), vec![0.0; 3]);
    }
}
