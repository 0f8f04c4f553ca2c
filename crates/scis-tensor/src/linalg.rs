//! Small dense linear-algebra kernels.
//!
//! The reproduction needs exact solves in two places: ridge regression inside
//! the MICE baseline (normal equations, SPD systems) and general small solves
//! in tests. Cholesky covers the SPD path; a partially pivoted LU covers the
//! general path.

use crate::exec::{for_row_spans, ExecPolicy};
use crate::fastmath::Precision;
use crate::matrix::Matrix;
use crate::ops::{gemm, matvec, Op, PAR_MIN_WORK};

/// Error type for factorization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not positive definite (Cholesky pivot ≤ 0).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The matrix is singular to working precision (LU pivot ~ 0).
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {}", pivot)
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix singular at pivot {}", pivot)
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// `a` must be symmetric positive definite; only its lower triangle is read.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    assert_eq!(a.rows(), a.cols(), "cholesky: matrix must be square");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for SPD `A` via Cholesky.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let l = cholesky(a)?;
    let n = l.rows();
    assert_eq!(b.len(), n, "solve_spd: rhs length mismatch");
    // forward: L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // backward: Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Ok(x)
}

/// Solves the ridge-regression normal equations
/// `(XᵀX + ridge·I) w = Xᵀ y` and returns `w`.
///
/// This is the workhorse of the MICE chained-equation baseline; `ridge > 0`
/// guarantees the system is SPD regardless of collinearity.
pub fn ridge_fit(x: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>, LinalgError> {
    assert_eq!(x.rows(), y.len(), "ridge_fit: sample count mismatch");
    assert!(ridge >= 0.0, "ridge_fit: negative ridge");
    let xt_times = |b: &Matrix| gemm(x, Op::Tn, b, ExecPolicy::Serial, Precision::F64);
    let mut gram = xt_times(x);
    for i in 0..gram.rows() {
        gram[(i, i)] += ridge;
    }
    let ym = Matrix::from_vec(y.len(), 1, y.to_vec());
    let xty = xt_times(&ym);
    solve_spd(&gram, xty.as_slice())
}

/// Solves `A x = b` for general square `A` via LU with partial pivoting.
pub fn solve_lu(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    assert_eq!(a.rows(), a.cols(), "solve_lu: matrix must be square");
    let n = a.rows();
    assert_eq!(b.len(), n, "solve_lu: rhs length mismatch");
    let mut lu = a.clone();
    let mut x = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for k in 0..n {
        // partial pivot
        let mut p = k;
        let mut max = lu[(k, k)].abs();
        for i in (k + 1)..n {
            if lu[(i, k)].abs() > max {
                max = lu[(i, k)].abs();
                p = i;
            }
        }
        if max < 1e-14 {
            return Err(LinalgError::Singular { pivot: k });
        }
        if p != k {
            for j in 0..n {
                let t = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = t;
            }
            x.swap(k, p);
            perm.swap(k, p);
        }
        for i in (k + 1)..n {
            let f = lu[(i, k)] / lu[(k, k)];
            lu[(i, k)] = f;
            for j in (k + 1)..n {
                lu[(i, j)] -= f * lu[(k, j)];
            }
            x[i] -= f * x[k];
        }
    }
    // back substitution
    for i in (0..n).rev() {
        let mut sum = x[i];
        for j in (i + 1)..n {
            sum -= lu[(i, j)] * x[j];
        }
        x[i] = sum / lu[(i, i)];
    }
    Ok(x)
}

/// Squared Euclidean norm of every row of `m`.
///
/// Building block of the decomposed pairwise-distance kernel:
/// `‖aᵢ − bⱼ‖² = ‖aᵢ‖² + ‖bⱼ‖² − 2·aᵢ·bⱼ`. The serial accumulation order is
/// fixed (left-to-right over each row) so results are bit-identical across
/// thread counts.
pub fn row_sq_norms(m: &Matrix) -> Vec<f64> {
    (0..m.rows())
        .map(|i| m.row(i).iter().map(|&v| v * v).sum())
        .collect()
}

/// Assembles squared pairwise distances from a cross Gram matrix and row
/// norms: `D[i][j] = max(an[i] + bn[j] − 2·gram[i][j], 0)`.
///
/// `gram` must be the `a·bᵀ` inner-product matrix (e.g. from
/// [`gemm`] with [`Op::Nt`]); `an`/`bn` the corresponding
/// [`row_sq_norms`]. The clamp at zero guards against small negative values
/// from catastrophic cancellation when `aᵢ ≈ bⱼ`.
///
/// The Gram buffer is consumed and rewritten in place over row spans, one
/// span per worker; every cell is computed by the same expression under any
/// policy, so the result is bit-identical across thread counts.
pub fn sq_dists_from_gram(mut gram: Matrix, an: &[f64], bn: &[f64], exec: ExecPolicy) -> Matrix {
    assert_eq!(gram.rows(), an.len(), "sq_dists_from_gram: an length");
    assert_eq!(gram.cols(), bn.len(), "sq_dists_from_gram: bn length");
    let (rows, cols) = gram.shape();
    if cols == 0 {
        return gram;
    }
    let threads = if rows * cols < PAR_MIN_WORK {
        1
    } else {
        exec.workers(rows)
    };
    for_row_spans(gram.as_mut_slice(), cols, threads, |r0, span| {
        for (di, row) in span.chunks_exact_mut(cols).enumerate() {
            let ai = an[r0 + di];
            for (g, &bj) in row.iter_mut().zip(bn) {
                *g = (ai + bj - 2.0 * *g).max(0.0);
            }
        }
    });
    gram
}

/// Residual `‖A x − b‖₂` — used by tests to validate solvers.
pub fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = matvec(a, x);
    ax.iter()
        .zip(b)
        .map(|(&p, &q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn serial(a: &Matrix, op: Op, b: &Matrix) -> Matrix {
        gemm(a, op, b, ExecPolicy::Serial, Precision::F64)
    }

    fn random_spd(n: usize, rng: &mut Rng64) -> Matrix {
        let b = Matrix::from_fn(n, n, |_, _| rng.normal());
        let mut a = serial(&b, Op::Tn, &b);
        for i in 0..n {
            a[(i, i)] += n as f64; // well-conditioned
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let mut rng = Rng64::seed_from_u64(1);
        let a = random_spd(6, &mut rng);
        let l = cholesky(&a).unwrap();
        let llt = serial(&l, Op::Nn, &l.transpose());
        for (x, y) in a.as_slice().iter().zip(llt.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{} vs {}", x, y);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigvals 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_spd_residual_small() {
        let mut rng = Rng64::seed_from_u64(2);
        let a = random_spd(8, &mut rng);
        let b: Vec<f64> = (0..8).map(|_| rng.normal()).collect();
        let x = solve_spd(&a, &b).unwrap();
        assert!(residual_norm(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn solve_lu_residual_small_and_handles_pivoting() {
        // leading zero forces a row swap
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, 1.0], &[2.0, 0.0, 3.0]]);
        let b = vec![5.0, 6.0, 13.0];
        let x = solve_lu(&a, &b).unwrap();
        assert!(residual_norm(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn solve_lu_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            solve_lu(&a, &[1.0, 2.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn ridge_recovers_weights_on_clean_data() {
        let mut rng = Rng64::seed_from_u64(3);
        let n = 200;
        let d = 4;
        let w_true = [1.5, -2.0, 0.5, 3.0];
        let x = Matrix::from_fn(n, d, |_, _| rng.normal());
        let y: Vec<f64> = (0..n)
            .map(|i| x.row(i).iter().zip(&w_true).map(|(&a, &b)| a * b).sum())
            .collect();
        let w = ridge_fit(&x, &y, 1e-6).unwrap();
        for (got, want) in w.iter().zip(&w_true) {
            assert!((got - want).abs() < 1e-4, "{} vs {}", got, want);
        }
    }

    #[test]
    fn row_sq_norms_matches_manual() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[-1.0, 2.0]]);
        assert_eq!(row_sq_norms(&m), vec![25.0, 0.0, 5.0]);
    }

    #[test]
    fn sq_dists_from_gram_matches_direct() {
        let mut rng = Rng64::seed_from_u64(5);
        let a = Matrix::from_fn(7, 4, |_, _| rng.normal());
        let b = Matrix::from_fn(5, 4, |_, _| rng.normal());
        let gram = serial(&a, Op::Nt, &b);
        let d = sq_dists_from_gram(
            gram,
            &row_sq_norms(&a),
            &row_sq_norms(&b),
            ExecPolicy::Serial,
        );
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let direct: f64 = a
                    .row(i)
                    .iter()
                    .zip(b.row(j))
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                assert!(
                    (d[(i, j)] - direct).abs() < 1e-10,
                    "({}, {}): {} vs {}",
                    i,
                    j,
                    d[(i, j)],
                    direct
                );
            }
        }
    }

    #[test]
    fn sq_dists_from_gram_clamps_cancellation_to_zero() {
        // identical rows: exact distance 0; the decomposition may produce a
        // tiny negative before the clamp
        let a = Matrix::from_rows(&[&[1e8, -1e8, 3.0]]);
        let gram = serial(&a, Op::Nt, &a);
        let n = row_sq_norms(&a);
        let d = sq_dists_from_gram(gram, &n, &n, ExecPolicy::Serial);
        assert!(d[(0, 0)] >= 0.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn sq_dists_from_gram_in_place_is_bit_identical_at_any_thread_count() {
        // 800 × 700 cells clear the parallel threshold
        let mut rng = Rng64::seed_from_u64(6);
        let a = Matrix::from_fn(800, 3, |_, _| rng.normal());
        let b = Matrix::from_fn(700, 3, |_, _| rng.normal());
        let gram = serial(&a, Op::Nt, &b);
        let (an, bn) = (row_sq_norms(&a), row_sq_norms(&b));
        // the per-cell expression, written out as the reference
        let want = Matrix::from_fn(800, 700, |i, j| {
            (an[i] + bn[j] - 2.0 * gram[(i, j)]).max(0.0)
        });
        for exec in [
            ExecPolicy::Serial,
            ExecPolicy::threads(2),
            ExecPolicy::threads(3),
            ExecPolicy::threads(7),
        ] {
            let got = sq_dists_from_gram(gram.clone(), &an, &bn, exec);
            assert!(
                got.as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{exec:?}"
            );
        }
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let mut rng = Rng64::seed_from_u64(4);
        let x = Matrix::from_fn(50, 3, |_, _| rng.normal());
        let y: Vec<f64> = (0..50)
            .map(|i| x[(i, 0)] * 2.0 + rng.normal() * 0.1)
            .collect();
        let w_small = ridge_fit(&x, &y, 1e-6).unwrap();
        let w_big = ridge_fit(&x, &y, 1e6).unwrap();
        assert!(w_big[0].abs() < w_small[0].abs());
        assert!(w_big.iter().all(|w| w.abs() < 1e-3));
    }
}
