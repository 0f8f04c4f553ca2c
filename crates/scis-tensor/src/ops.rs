//! Matrix multiplication kernels and pairwise-distance helpers.
//!
//! The hot loops of the reproduction are (a) GEMM inside the neural nets and
//! (b) pairwise squared distances inside Sinkhorn cost matrices and kNN. Both
//! live here, each behind one entry point: [`gemm`] for the three operand
//! layouts in use ([`Op::Nn`], [`Op::Nt`], [`Op::Tn`]) at either
//! [`Precision`], and [`pairwise_sq_dists`]. Both take an [`ExecPolicy`] and
//! partition *output rows* across scoped workers once the product clears
//! [`PAR_MIN_WORK`]; below it they run on the calling thread so per-batch NN
//! products do not pay thread-spawn overhead.
//!
//! The GEMM kernels are register-tiled: a 4×4 (or 1×4) block of the output
//! is held in explicit scalar accumulators across the full inner dimension,
//! so the CPU overlaps multiplies across independent chains and the
//! compiler can keep the tile in vector registers.
//!
//! # Determinism rules (load-bearing — see DESIGN.md §16)
//!
//! Every output element is produced by **one accumulator chain in ascending
//! inner-index order** (for [`Op::Nn`]/[`Op::Tn`]) or by the fixed 4-lane
//! pattern of [`dot`] (for [`Op::Nt`]). Tiling only changes *which elements
//! are in flight together*, never the order of adds within an element, so
//! the blocked kernels are bit-identical to the naive reference loops of
//! [`gemm_naive`] and to any row partition of themselves — which is what
//! lets [`gemm`] promise bit-equality at every thread count.
//!
//! There is deliberately **no zero-skip** in any kernel: the historical
//! `if av == 0.0 { continue; }` fast path silently dropped `0.0 × NaN` and
//! `0.0 × inf` contributions, letting non-finite activations survive a
//! backward pass undetected. Skipping a `±0.0 × finite` product is a bitwise
//! no-op anyway (an accumulator seeded at `+0.0` can never become `-0.0`
//! through adds), so removing the skip changed no finite result.
//!
//! The kernels are generic over the storage scalar: `f64` (default path) or
//! `f32` ([`Precision::F32`]: operands rounded once and widened back per
//! multiply — accumulators are always `f64`; see [`crate::fastmath`]), which
//! keeps the across-thread bit-equality contract *within* a precision mode.

use crate::exec::{for_each_row, for_row_spans, ExecPolicy};
use crate::fastmath::Precision;
use crate::matrix::Matrix;

/// Storage scalar of a GEMM operand: `f64` (default) or `f32` (accel mode).
/// Accumulation is always `f64` via [`Scalar::w`].
pub trait Scalar: Copy + Send + Sync {
    /// Widens the stored value to the `f64` accumulator domain.
    fn w(self) -> f64;
}

impl Scalar for f64 {
    #[inline(always)]
    fn w(self) -> f64 {
        self
    }
}

impl Scalar for f32 {
    #[inline(always)]
    fn w(self) -> f64 {
        self as f64
    }
}

/// Minimum number of inner-loop scalar operations (`m · k · n` for GEMM,
/// `m · n · d` for pairwise distances) before a kernel goes parallel.
/// Below this the thread-spawn cost dominates any speedup.
pub const PAR_MIN_WORK: usize = 1 << 19;

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile.
const NR: usize = 4;

/// Rounds a matrix to `f32` storage for the opt-in compute mode.
pub fn to_f32_vec(m: &Matrix) -> Vec<f32> {
    m.as_slice().iter().map(|&v| v as f32).collect()
}

/// Writes rows `[r0, r0 + out.len()/n)` of `A · B` into `out` (`A: m×k`
/// row-major in `a`, `B: k×n` row-major in `b`; `out` is pre-zeroed).
///
/// Each output element is one `f64` accumulator filled in ascending-`p`
/// order, so any row partition of this kernel is bit-identical to the
/// full-range call.
fn gemm_nn_span<T: Scalar>(a: &[T], k: usize, b: &[T], n: usize, r0: usize, out: &mut [f64]) {
    if n == 0 {
        return;
    }
    let rs = out.len() / n;
    let mut ib = 0;
    // 4×4 register tiles: 16 accumulators per tile, full-k inner loop.
    while ib + MR <= rs {
        let a0 = &a[(r0 + ib) * k..][..k];
        let a1 = &a[(r0 + ib + 1) * k..][..k];
        let a2 = &a[(r0 + ib + 2) * k..][..k];
        let a3 = &a[(r0 + ib + 3) * k..][..k];
        let mut jb = 0;
        while jb + NR <= n {
            let mut c = [[0.0f64; NR]; MR];
            for p in 0..k {
                let bb = &b[p * n + jb..][..NR];
                let (b0, b1, b2, b3) = (bb[0].w(), bb[1].w(), bb[2].w(), bb[3].w());
                let av = [a0[p].w(), a1[p].w(), a2[p].w(), a3[p].w()];
                for (ci, &ai) in c.iter_mut().zip(av.iter()) {
                    ci[0] += ai * b0;
                    ci[1] += ai * b1;
                    ci[2] += ai * b2;
                    ci[3] += ai * b3;
                }
            }
            for (ii, ci) in c.iter().enumerate() {
                out[(ib + ii) * n + jb..][..NR].copy_from_slice(ci);
            }
            jb += NR;
        }
        // column tail: 4 rows × 1 column, still ascending-p per element
        for j in jb..n {
            let mut c = [0.0f64; MR];
            for p in 0..k {
                let bv = b[p * n + j].w();
                c[0] += a0[p].w() * bv;
                c[1] += a1[p].w() * bv;
                c[2] += a2[p].w() * bv;
                c[3] += a3[p].w() * bv;
            }
            for (ii, &cv) in c.iter().enumerate() {
                out[(ib + ii) * n + j] = cv;
            }
        }
        ib += MR;
    }
    // row tail: classic ikj so the inner loop streams both operands
    for i in ib..rs {
        let arow = &a[(r0 + i) * k..][..k];
        let orow = &mut out[i * n..][..n];
        for (p, &apv) in arow.iter().enumerate() {
            let av = apv.w();
            let brow = &b[p * n..][..n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv.w();
            }
        }
    }
}

/// Writes rows `[r0, r0 + out.len()/n)` of `A · Bᵀ` into `out` (`A: m×k`,
/// `B: n×k`, both row-major; `out` pre-zeroed).
///
/// Every output element uses exactly the 4-lane + tail pattern of [`dot`],
/// so the tiled kernel is bit-identical to calling `dot` per element.
fn gemm_nt_span<T: Scalar>(a: &[T], k: usize, b: &[T], n: usize, r0: usize, out: &mut [f64]) {
    if n == 0 {
        return;
    }
    let rs = out.len() / n;
    let kc = (k / 4) * 4;
    for i in 0..rs {
        let arow = &a[(r0 + i) * k..][..k];
        let orow = &mut out[i * n..][..n];
        let mut jb = 0;
        // 1×4 tiles: four dot products share each strip of A-row loads.
        while jb + NR <= n {
            let b0 = &b[jb * k..][..k];
            let b1 = &b[(jb + 1) * k..][..k];
            let b2 = &b[(jb + 2) * k..][..k];
            let b3 = &b[(jb + 3) * k..][..k];
            let mut lanes = [[0.0f64; 4]; NR];
            let mut p = 0;
            while p < kc {
                let aw = [
                    arow[p].w(),
                    arow[p + 1].w(),
                    arow[p + 2].w(),
                    arow[p + 3].w(),
                ];
                for (le, br) in lanes.iter_mut().zip([b0, b1, b2, b3]) {
                    le[0] += aw[0] * br[p].w();
                    le[1] += aw[1] * br[p + 1].w();
                    le[2] += aw[2] * br[p + 2].w();
                    le[3] += aw[3] * br[p + 3].w();
                }
                p += 4;
            }
            let mut tails = [0.0f64; NR];
            for q in kc..k {
                let aq = arow[q].w();
                tails[0] += aq * b0[q].w();
                tails[1] += aq * b1[q].w();
                tails[2] += aq * b2[q].w();
                tails[3] += aq * b3[q].w();
            }
            for (e, (le, &t)) in lanes.iter().zip(tails.iter()).enumerate() {
                orow[jb + e] = (le[0] + le[1]) + (le[2] + le[3]) + t;
            }
            jb += NR;
        }
        for (j, o) in orow.iter_mut().enumerate().skip(jb) {
            *o = dot(arow, &b[j * k..][..k]);
        }
    }
}

/// Writes rows `[r0, r0 + out.len()/n)` of `Aᵀ · B` into `out` (`A: k×m`,
/// `B: k×n`, both row-major; output is `m×n`; `out` pre-zeroed; `am` is the
/// column count of `A`, i.e. the full output row count `m`).
///
/// Each output element is one `f64` accumulator filled in ascending-`p`
/// order — the same chain as the historical `p`-outer serial loop, minus
/// the NaN-masking zero-skip.
fn gemm_tn_span<T: Scalar>(
    a: &[T],
    am: usize,
    b: &[T],
    n: usize,
    k: usize,
    r0: usize,
    out: &mut [f64],
) {
    if n == 0 {
        return;
    }
    let rs = out.len() / n;
    let mut ib = 0;
    while ib + MR <= rs {
        let i0 = r0 + ib;
        let mut jb = 0;
        while jb + NR <= n {
            let mut c = [[0.0f64; NR]; MR];
            for p in 0..k {
                let av = &a[p * am + i0..][..MR];
                let bb = &b[p * n + jb..][..NR];
                let (b0, b1, b2, b3) = (bb[0].w(), bb[1].w(), bb[2].w(), bb[3].w());
                for (ci, &ai) in c.iter_mut().zip(av.iter()) {
                    let aw = ai.w();
                    ci[0] += aw * b0;
                    ci[1] += aw * b1;
                    ci[2] += aw * b2;
                    ci[3] += aw * b3;
                }
            }
            for (ii, ci) in c.iter().enumerate() {
                out[(ib + ii) * n + jb..][..NR].copy_from_slice(ci);
            }
            jb += NR;
        }
        for j in jb..n {
            let mut c = [0.0f64; MR];
            for p in 0..k {
                let av = &a[p * am + i0..][..MR];
                let bv = b[p * n + j].w();
                c[0] += av[0].w() * bv;
                c[1] += av[1].w() * bv;
                c[2] += av[2].w() * bv;
                c[3] += av[3].w() * bv;
            }
            for (ii, &cv) in c.iter().enumerate() {
                out[(ib + ii) * n + j] = cv;
            }
        }
        ib += MR;
    }
    for i in ib..rs {
        let ia = r0 + i;
        let orow = &mut out[i * n..][..n];
        for p in 0..k {
            let av = a[p * am + ia].w();
            let brow = &b[p * n..][..n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv.w();
            }
        }
    }
}

/// Operand layout of a [`gemm`]: which side is read transposed. The
/// transposed operand is never materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `A · B` for `A: m×k`, `B: k×n`.
    Nn,
    /// `A · Bᵀ` for `A: m×k`, `B: n×k`; per element identical to [`dot`].
    Nt,
    /// `Aᵀ · B` for `A: k×m`, `B: k×n`.
    Tn,
}

impl Op {
    /// `(m, k, n)` of the product.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    fn dims(self, a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
        let (m, k, kb, n) = match self {
            Op::Nn => (a.rows(), a.cols(), b.rows(), b.cols()),
            Op::Nt => (a.rows(), a.cols(), b.cols(), b.rows()),
            Op::Tn => (a.cols(), a.rows(), b.rows(), b.cols()),
        };
        assert_eq!(
            k,
            kb,
            "gemm {:?}: inner dimension mismatch {:?} · {:?}",
            self,
            a.shape(),
            b.shape()
        );
        (m, k, n)
    }
}

/// The product `op(A, B)` (register-tiled). Under [`Precision::F32`] the
/// operands are rounded to `f32` storage once and the same kernels run over
/// the converted buffers with `f64` accumulators.
///
/// Products of at least [`PAR_MIN_WORK`] multiply-adds are split into
/// contiguous output-row spans, one per worker of `exec`; each element's
/// accumulation chain lives inside its own row, so the result is
/// bit-identical at every thread count and to [`gemm_naive`] under
/// [`Precision::F64`].
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn gemm(a: &Matrix, op: Op, b: &Matrix, exec: ExecPolicy, precision: Precision) -> Matrix {
    let (m, k, n) = op.dims(a, b);
    let threads = if n == 0 || m * k * n < PAR_MIN_WORK {
        1
    } else {
        exec.workers(m)
    };
    let mut out = Matrix::zeros(m, n);
    let dims = (m, k, n);
    match precision {
        Precision::F64 => gemm_spans(a.as_slice(), op, b.as_slice(), dims, threads, &mut out),
        Precision::F32 => gemm_spans(&to_f32_vec(a), op, &to_f32_vec(b), dims, threads, &mut out),
    }
    out
}

/// Runs the span kernel of `op` over `threads` row spans of `out`.
fn gemm_spans<T: Scalar>(
    a: &[T],
    op: Op,
    b: &[T],
    (m, k, n): (usize, usize, usize),
    threads: usize,
    out: &mut Matrix,
) {
    for_row_spans(out.as_mut_slice(), n.max(1), threads, |r0, span| match op {
        Op::Nn => gemm_nn_span(a, k, b, n, r0, span),
        Op::Nt => gemm_nt_span(a, k, b, n, r0, span),
        Op::Tn => gemm_tn_span(a, m, b, n, k, r0, span),
    });
}

/// Naive reference `op(A, B)`, serial and untiled: the plain `ikj` nest for
/// [`Op::Nn`], [`dot`] per element for [`Op::Nt`] and the `p`-outer nest for
/// [`Op::Tn`], one accumulator per element in ascending inner-index order
/// and no zero-skip. Kept as the bit-exact oracle the blocked kernels are
/// tested against.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn gemm_naive(a: &Matrix, op: Op, b: &Matrix) -> Matrix {
    let (m, _, n) = op.dims(a, b);
    let mut out = Matrix::zeros(m, n);
    match op {
        Op::Nn => {
            for i in 0..m {
                let orow = out.row_mut(i);
                for (p, &av) in a.row(i).iter().enumerate() {
                    for (o, &bv) in orow.iter_mut().zip(b.row(p)) {
                        *o += av * bv;
                    }
                }
            }
        }
        Op::Nt => {
            for i in 0..m {
                let arow = a.row(i);
                for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                    *o = dot(arow, b.row(j));
                }
            }
        }
        Op::Tn => {
            for p in 0..a.rows() {
                let brow = b.row(p);
                for (i, &av) in a.row(p).iter().enumerate() {
                    for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
    out
}

/// Inner product with four independent accumulators. The single-accumulator
/// loop serializes every add behind the previous one; splitting the chain
/// lets the CPU overlap the multiplies, which is what makes the decomposed
/// Gram-based cost kernel faster than the subtract-square loop it replaces.
/// The accumulation order is fixed (lanes then tail), so results are
/// bit-identical for any thread count. Generic over the storage scalar;
/// accumulation is always `f64`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f64; 4];
    let xc = x.chunks_exact(4);
    let yc = y.chunks_exact(4);
    let xr = xc.remainder();
    let yr = yc.remainder();
    for (cx, cy) in xc.zip(yc) {
        lanes[0] += cx[0].w() * cy[0].w();
        lanes[1] += cx[1].w() * cy[1].w();
        lanes[2] += cx[2].w() * cy[2].w();
        lanes[3] += cx[3].w() * cy[3].w();
    }
    let mut tail = 0.0;
    for (&a, &b) in xr.iter().zip(yr) {
        tail += a.w() * b.w();
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Matrix-vector product `A · v`.
pub fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), v.len(), "matvec: dimension mismatch");
    a.rows_iter()
        .map(|row| row.iter().zip(v).map(|(&x, &y)| x * y).sum())
        .collect()
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let d = a - b;
        acc += d * d;
    }
    acc
}

/// All-pairs squared distances: `D[i][j] = ||a_i - b_j||²` for row sets
/// `a: m x d`, `b: n x d`, via [`sq_dist`] per element. Goes parallel over
/// output rows under `exec` once `m · n · d` reaches [`PAR_MIN_WORK`];
/// bit-identical at every thread count.
pub fn pairwise_sq_dists(a: &Matrix, b: &Matrix, exec: ExecPolicy) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "pairwise_sq_dists: feature dim mismatch"
    );
    let (m, n, d) = (a.rows(), b.rows(), a.cols());
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return out;
    }
    let threads = if m * n * d.max(1) < PAR_MIN_WORK {
        1
    } else {
        exec.workers(m)
    };
    for_each_row(out.as_mut_slice(), n, threads, |i, orow| {
        let arow = a.row(i);
        for (j, o) in orow.iter_mut().enumerate() {
            *o = sq_dist(arow, b.row(j));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    const OPS: [Op; 3] = [Op::Nn, Op::Nt, Op::Tn];

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    /// Serial `f64` product — the reference every other call is held to.
    fn serial(a: &Matrix, op: Op, b: &Matrix) -> Matrix {
        gemm(a, op, b, ExecPolicy::Serial, Precision::F64)
    }

    /// Random operands of `op` for an `m×k · k×n` product.
    fn operands(op: Op, (m, k, n): (usize, usize, usize), rng: &mut Rng64) -> (Matrix, Matrix) {
        let (ar, ac) = if op == Op::Tn { (k, m) } else { (m, k) };
        let (br, bc) = if op == Op::Nt { (n, k) } else { (k, n) };
        (
            Matrix::from_fn(ar, ac, |_, _| rng.normal()),
            Matrix::from_fn(br, bc, |_, _| rng.normal()),
        )
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = serial(&a, Op::Nn, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 3 + j) as f64);
        assert!(approx_eq(&serial(&a, Op::Nn, &Matrix::eye(4)), &a, 1e-12));
        assert!(approx_eq(&serial(&Matrix::eye(4), Op::Nn, &a), &a, 1e-12));
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64 - 0.3 * j as f64).sin());
        let b = Matrix::from_fn(4, 5, |i, j| (0.7 * i as f64 + j as f64).cos());
        assert!(approx_eq(
            &serial(&a, Op::Nt, &b),
            &serial(&a, Op::Nn, &b.transpose()),
            1e-12
        ));

        let c = Matrix::from_fn(5, 3, |i, j| (i + 2 * j) as f64 * 0.1);
        let d = Matrix::from_fn(5, 4, |i, j| (2 * i + j) as f64 * 0.2);
        assert!(approx_eq(
            &serial(&c, Op::Tn, &d),
            &serial(&c.transpose(), Op::Nn, &d),
            1e-12
        ));
    }

    #[test]
    fn blocked_kernels_match_naive_bit_exactly() {
        // Sweep shapes around the 4×4 tile boundaries so every tail path
        // (row tail, column tail, dot remainder) is exercised.
        let mut rng = Rng64::seed_from_u64(51);
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 4),
            (5, 4, 9),
            (7, 13, 6),
            (8, 16, 12),
            (13, 3, 17),
            (33, 31, 29),
        ] {
            let a = Matrix::from_fn(m, k, |_, _| rng.normal());
            let b = Matrix::from_fn(k, n, |_, _| rng.normal());
            assert_eq!(
                serial(&a, Op::Nn, &b),
                gemm_naive(&a, Op::Nn, &b),
                "Nn {m}x{k}x{n}"
            );
            let bt = Matrix::from_fn(n, k, |_, _| rng.normal());
            assert_eq!(
                serial(&a, Op::Nt, &bt),
                gemm_naive(&a, Op::Nt, &bt),
                "Nt {m}x{k}x{n}"
            );
            let at = Matrix::from_fn(k, m, |_, _| rng.normal());
            let bn = Matrix::from_fn(k, n, |_, _| rng.normal());
            assert_eq!(
                serial(&at, Op::Tn, &bn),
                gemm_naive(&at, Op::Tn, &bn),
                "Tn {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn kernels_propagate_nan_through_zero_operands() {
        // The historical zero-skip dropped 0·NaN contributions; the blocked
        // kernels must poison the affected outputs instead.
        let mut a = Matrix::zeros(3, 4);
        a[(1, 2)] = 0.0; // explicit zero against the NaN row of B
        a[(0, 0)] = 1.0;
        let mut b = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        b[(2, 1)] = f64::NAN;
        let c = serial(&a, Op::Nn, &b);
        // every output in column 1 touches B[2][1] via some a[i][2] (all 0.0)
        for i in 0..3 {
            assert!(c[(i, 1)].is_nan(), "row {i} lost the 0·NaN poison");
        }
        assert!(c[(0, 0)].is_finite());

        // Tn: NaN in B against an all-zero column of A
        let at = Matrix::zeros(4, 3);
        let mut bn = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        bn[(1, 0)] = f64::INFINITY;
        let cat = serial(&at, Op::Tn, &bn);
        for i in 0..3 {
            assert!(cat[(i, 0)].is_nan(), "0·inf must produce NaN, row {i}");
        }

        // Nt goes through dot(), which never skipped zeros — pin it
        let za = Matrix::zeros(2, 5);
        let mut zb = Matrix::from_fn(3, 5, |_, _| 1.0);
        zb[(1, 4)] = f64::NAN;
        let cbt = serial(&za, Op::Nt, &zb);
        assert!(cbt[(0, 1)].is_nan());
        assert!(cbt[(0, 0)] == 0.0);
    }

    #[test]
    fn f32_kernels_match_f64_within_operand_rounding() {
        let mut rng = Rng64::seed_from_u64(52);
        let f32_gemm =
            |a: &Matrix, op, b: &Matrix| gemm(a, op, b, ExecPolicy::Serial, Precision::F32);
        let a = Matrix::from_fn(9, 14, |_, _| rng.normal());
        let b = Matrix::from_fn(14, 7, |_, _| rng.normal());
        let want = serial(&a, Op::Nn, &b);
        let got = f32_gemm(&a, Op::Nn, &b);
        assert!(approx_eq(&want, &got, 1e-4), "Nn f32 drifted");
        let bt = Matrix::from_fn(7, 14, |_, _| rng.normal());
        assert!(approx_eq(
            &serial(&a, Op::Nt, &bt),
            &f32_gemm(&a, Op::Nt, &bt),
            1e-4
        ));
        let at = Matrix::from_fn(14, 9, |_, _| rng.normal());
        assert!(approx_eq(
            &serial(&at, Op::Tn, &b),
            &f32_gemm(&at, Op::Tn, &b),
            1e-4
        ));
    }

    #[test]
    fn threaded_gemm_matches_serial_bit_exactly_above_threshold() {
        // 128 · 96 · 128 = 1.5M > PAR_MIN_WORK, so the parallel path runs;
        // within each precision, thread count never changes a bit
        let mut rng = Rng64::seed_from_u64(7);
        for op in OPS {
            let (a, b) = operands(op, (128, 96, 128), &mut rng);
            for precision in [Precision::F64, Precision::F32] {
                let want = gemm(&a, op, &b, ExecPolicy::Serial, precision);
                for exec in [
                    ExecPolicy::threads(2),
                    ExecPolicy::threads(3),
                    ExecPolicy::threads(5),
                    ExecPolicy::threads(8),
                    ExecPolicy::Auto,
                ] {
                    let got = gemm(&a, op, &b, exec, precision);
                    assert_eq!(got, want, "{op:?} {precision:?} {exec:?}");
                }
            }
        }
    }

    #[test]
    fn threaded_pairwise_matches_serial_bit_exactly() {
        let mut rng = Rng64::seed_from_u64(2);
        // above the threshold (128 · 128 · 96) and below it (100 · 70 · 6)
        for (m, n, d) in [(128, 128, 96), (100, 70, 6)] {
            let a = Matrix::from_fn(m, d, |_, _| rng.uniform());
            let b = Matrix::from_fn(n, d, |_, _| rng.uniform());
            let want = pairwise_sq_dists(&a, &b, ExecPolicy::Serial);
            for exec in [
                ExecPolicy::threads(2),
                ExecPolicy::threads(3),
                ExecPolicy::threads(5),
                ExecPolicy::threads(8),
                ExecPolicy::Auto,
            ] {
                let got = pairwise_sq_dists(&a, &b, exec);
                assert_eq!(got, want, "{m}x{n}x{d} {exec:?}");
            }
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        // 65 rows of A against 2,700 rows of B clears the threshold, so the
        // 1,000 requested workers clamp to one per output row
        let mut rng = Rng64::seed_from_u64(3);
        let a = Matrix::from_fn(65, 3, |_, _| rng.normal());
        let b = Matrix::from_fn(2700, 3, |_, _| rng.normal());
        let many = ExecPolicy::threads(1000);
        assert_eq!(
            gemm(&a, Op::Nt, &b, many, Precision::F64),
            serial(&a, Op::Nt, &b)
        );
        assert_eq!(
            pairwise_sq_dists(&a, &b, many),
            pairwise_sq_dists(&a, &b, ExecPolicy::Serial)
        );
    }

    #[test]
    fn shapes_below_the_threshold_run_serially() {
        let mut rng = Rng64::seed_from_u64(8);
        for op in OPS {
            let (a, b) = operands(op, (12, 7, 9), &mut rng);
            let got = gemm(&a, op, &b, ExecPolicy::threads(8), Precision::F64);
            assert_eq!(got, gemm_naive(&a, op, &b), "{op:?}");
        }
        let a = Matrix::ones(4, 4);
        let got = gemm(
            &a,
            Op::Nn,
            &Matrix::eye(4),
            ExecPolicy::threads(8),
            Precision::F64,
        );
        assert_eq!(got, a);
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        for exec in [ExecPolicy::Serial, ExecPolicy::threads(3)] {
            let nn = |a: &Matrix, b: &Matrix| gemm(a, Op::Nn, b, exec, Precision::F64);
            assert_eq!(
                nn(&Matrix::zeros(0, 3), &Matrix::zeros(3, 4)).shape(),
                (0, 4)
            );
            assert_eq!(
                nn(&Matrix::zeros(2, 0), &Matrix::zeros(0, 4)),
                Matrix::zeros(2, 4)
            );
            assert_eq!(
                nn(&Matrix::zeros(2, 3), &Matrix::zeros(3, 0)).shape(),
                (2, 0)
            );
            let pw = pairwise_sq_dists(&Matrix::zeros(3, 2), &Matrix::zeros(0, 2), exec);
            assert_eq!(pw.shape(), (3, 0));
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let _ = serial(&Matrix::zeros(2, 3), Op::Nn, &Matrix::zeros(2, 3));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + j) as f64);
        let v = vec![1.0, -1.0, 2.0, 0.5];
        let got = matvec(&a, &v);
        let vm = Matrix::from_vec(4, 1, v);
        let want = serial(&a, Op::Nn, &vm);
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn pairwise_distances_are_symmetric_with_zero_diag() {
        let x = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 13) % 11) as f64);
        let d = pairwise_sq_dists(&x, &x, ExecPolicy::Serial);
        for i in 0..5 {
            assert_eq!(d[(i, i)], 0.0);
            for j in 0..5 {
                assert_eq!(d[(i, j)], d[(j, i)]);
                assert!(d[(i, j)] >= 0.0);
            }
        }
    }

    #[test]
    fn sq_dist_simple() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
