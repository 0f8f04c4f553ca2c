//! Masked squared-Euclidean cost matrices (paper Definition 2).

use scis_tensor::linalg::{row_sq_norms, sq_dists_from_gram};
use scis_tensor::ops::{gemm, pairwise_sq_dists, Op};
use scis_tensor::Precision;
use scis_tensor::{ExecPolicy, Matrix};

/// Builds the masking cost matrix between two row sets:
/// `C[i][j] = ‖ma_i ⊙ a_i − mb_j ⊙ b_j‖²`.
///
/// In the paper's Definition 2 both sides share the batch's mask matrix
/// (`a = X̄`, `b = X`, `ma = mb = M`); the two-mask form is also used by the
/// RRSI baseline, which compares two different batches.
///
/// Serial convenience wrapper around [`masked_sq_cost_with`].
///
/// # Panics
/// Panics if feature dimensions disagree or masks don't match their data.
pub fn masked_sq_cost(a: &Matrix, ma: &Matrix, b: &Matrix, mb: &Matrix) -> Matrix {
    masked_sq_cost_with(a, ma, b, mb, ExecPolicy::Serial)
}

/// Policy-aware [`masked_sq_cost`]: large cost matrices are built in
/// parallel over row blocks, bit-identical to the serial build.
pub fn masked_sq_cost_with(
    a: &Matrix,
    ma: &Matrix,
    b: &Matrix,
    mb: &Matrix,
    exec: ExecPolicy,
) -> Matrix {
    assert_eq!(
        a.shape(),
        ma.shape(),
        "masked_sq_cost: a/mask shape mismatch"
    );
    assert_eq!(
        b.shape(),
        mb.shape(),
        "masked_sq_cost: b/mask shape mismatch"
    );
    assert_eq!(a.cols(), b.cols(), "masked_sq_cost: feature dim mismatch");
    // Pre-mask both sides once (O(nd + md)) so the O(n·m·d) loop is a plain
    // squared distance.
    let am = a.hadamard(ma);
    let bm = b.hadamard(mb);
    pairwise_sq_dists(&am, &bm, exec)
}

/// Pre-masked rows of one side of a masked cost, plus their squared norms.
///
/// The decomposed cost kernel writes
/// `C[i][j] = ‖aᵢ‖² + ‖bⱼ‖² − 2·(A⊙Mₐ)(B⊙M_b)ᵀ`, so each side reduces to its
/// masked row matrix and row-norm vector. During DIM training the data side
/// (`X ⊙ M`) is constant across epochs — only the generator side `X̄` changes
/// — so a [`MaskedRows`] built once over the whole dataset amortizes the
/// per-batch masking and norm work to a row gather.
#[derive(Debug, Clone)]
pub struct MaskedRows {
    /// `X ⊙ M`, one row per dataset row.
    pub rows: Matrix,
    /// `‖(x ⊙ m)ᵢ‖²` for each row.
    pub sq_norms: Vec<f64>,
}

impl MaskedRows {
    /// Masks `x` by `m` and precomputes per-row squared norms.
    ///
    /// # Panics
    /// Panics if `x` and `m` disagree in shape.
    pub fn new(x: &Matrix, m: &Matrix) -> Self {
        assert_eq!(x.shape(), m.shape(), "MaskedRows: x/mask shape mismatch");
        let rows = x.hadamard(m);
        let sq_norms = row_sq_norms(&rows);
        Self { rows, sq_norms }
    }

    /// Gathers the masked rows and norms for a batch of dataset row indices.
    pub fn select(&self, indices: &[usize]) -> Self {
        Self {
            rows: self.rows.select_rows(indices),
            sq_norms: indices.iter().map(|&i| self.sq_norms[i]).collect(),
        }
    }
}

/// Decomposed masked cost: one GEMM plus a rank-1 norm broadcast instead of
/// the O(n·m·d) scalar distance loop.
///
/// Computes `C[i][j] = max(‖aᵢ‖² + ‖bⱼ‖² − 2·aᵢ·bⱼ, 0)` where `a`/`b` are
/// already-masked rows (see [`MaskedRows`]). Mathematically identical to
/// [`masked_sq_cost_with`] but **not** bitwise identical — the difference is
/// one or two ulps from the reassociated accumulation — which is why the
/// accelerated path is opt-in (`AccelConfig::decomposed_cost`). Within a
/// fixed kernel choice, results are still bit-identical across thread counts.
pub fn masked_sq_cost_decomposed(a: &MaskedRows, b: &MaskedRows, exec: ExecPolicy) -> Matrix {
    masked_sq_cost_decomposed_p(a, b, exec, Precision::F64)
}

/// Precision-aware [`masked_sq_cost_decomposed`]: under [`Precision::F32`]
/// the Gram-matrix GEMM stores its operands as `f32` (accumulating `f64`);
/// the norm broadcast and clamp stay full precision.
pub fn masked_sq_cost_decomposed_p(
    a: &MaskedRows,
    b: &MaskedRows,
    exec: ExecPolicy,
    precision: Precision,
) -> Matrix {
    assert_eq!(
        a.rows.cols(),
        b.rows.cols(),
        "masked_sq_cost_decomposed: feature dim mismatch"
    );
    let gram = gemm(&a.rows, Op::Nt, &b.rows, exec, precision);
    sq_dists_from_gram(gram, &a.sq_norms, &b.sq_norms, exec)
}

/// Self cost `C[i][j] = ‖m_i ⊙ x_i − m_j ⊙ x_j‖²` within one masked set.
pub fn masked_self_cost(x: &Matrix, m: &Matrix) -> Matrix {
    masked_sq_cost(x, m, x, m)
}

/// Policy-aware [`masked_self_cost`].
pub fn masked_self_cost_with(x: &Matrix, m: &Matrix, exec: ExecPolicy) -> Matrix {
    masked_sq_cost_with(x, m, x, m, exec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmasked_reduces_to_plain_sq_dist() {
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let ones_a = Matrix::ones(2, 2);
        let ones_b = Matrix::ones(1, 2);
        let c = masked_sq_cost(&a, &ones_a, &b, &ones_b);
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c[(0, 0)], 25.0);
        assert_eq!(c[(1, 0)], 13.0);
    }

    #[test]
    fn mask_zeroes_out_missing_dimensions() {
        let a = Matrix::from_rows(&[&[100.0, 1.0]]);
        let ma = Matrix::from_rows(&[&[0.0, 1.0]]); // first dim missing
        let b = Matrix::from_rows(&[&[0.0, 3.0]]);
        let mb = Matrix::from_rows(&[&[1.0, 1.0]]);
        let c = masked_sq_cost(&a, &ma, &b, &mb);
        // masked a = (0,1); masked b = (0,3) → dist² = 4
        assert_eq!(c[(0, 0)], 4.0);
    }

    #[test]
    fn self_cost_symmetric_zero_diagonal() {
        let x = Matrix::from_fn(4, 3, |i, j| ((i * 5 + j * 3) % 7) as f64);
        let m = Matrix::from_fn(4, 3, |i, j| ((i + j) % 2) as f64);
        let c = masked_self_cost(&x, &m);
        for i in 0..4 {
            assert_eq!(c[(i, i)], 0.0);
            for j in 0..4 {
                assert_eq!(c[(i, j)], c[(j, i)]);
                assert!(c[(i, j)] >= 0.0);
            }
        }
    }

    #[test]
    fn fully_masked_rows_have_zero_cost() {
        let a = Matrix::from_rows(&[&[5.0, -2.0]]);
        let z = Matrix::zeros(1, 2);
        let b = Matrix::from_rows(&[&[9.0, 9.0]]);
        let c = masked_sq_cost(&a, &z, &b, &z.clone());
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn decomposed_matches_loop_kernel_within_ulps() {
        use scis_tensor::Rng64;
        let mut rng = Rng64::seed_from_u64(11);
        let a = Matrix::from_fn(13, 6, |_, _| rng.normal());
        let ma = Matrix::from_fn(13, 6, |_, _| if rng.uniform() < 0.3 { 0.0 } else { 1.0 });
        let b = Matrix::from_fn(9, 6, |_, _| rng.normal());
        let mb = Matrix::from_fn(9, 6, |_, _| if rng.uniform() < 0.3 { 0.0 } else { 1.0 });
        let loop_c = masked_sq_cost_with(&a, &ma, &b, &mb, ExecPolicy::Serial);
        let ra = MaskedRows::new(&a, &ma);
        let rb = MaskedRows::new(&b, &mb);
        let dec_c = masked_sq_cost_decomposed(&ra, &rb, ExecPolicy::Serial);
        assert_eq!(loop_c.shape(), dec_c.shape());
        for (x, y) in loop_c.as_slice().iter().zip(dec_c.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{} vs {}", x, y);
            assert!(*y >= 0.0);
        }
    }

    #[test]
    fn masked_rows_select_gathers_batch() {
        let x = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64);
        let m = Matrix::from_fn(6, 3, |i, j| ((i + j) % 2) as f64);
        let full = MaskedRows::new(&x, &m);
        let batch = full.select(&[4, 1]);
        assert_eq!(batch.rows.rows(), 2);
        for j in 0..3 {
            assert_eq!(batch.rows[(0, j)], full.rows[(4, j)]);
            assert_eq!(batch.rows[(1, j)], full.rows[(1, j)]);
        }
        assert_eq!(batch.sq_norms, vec![full.sq_norms[4], full.sq_norms[1]]);
    }

    #[test]
    fn decomposed_self_cost_zero_diagonal_after_clamp() {
        let x = Matrix::from_fn(5, 4, |i, j| ((i * 7 + j * 2) % 5) as f64 * 1e3);
        let m = Matrix::ones(5, 4);
        let r = MaskedRows::new(&x, &m);
        let c = masked_sq_cost_decomposed(&r, &r, ExecPolicy::Serial);
        for i in 0..5 {
            assert_eq!(c[(i, i)], 0.0, "diagonal must clamp to exactly zero");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_mismatched_mask() {
        let _ = masked_sq_cost(
            &Matrix::zeros(2, 3),
            &Matrix::zeros(2, 2),
            &Matrix::zeros(2, 3),
            &Matrix::zeros(2, 3),
        );
    }
}
