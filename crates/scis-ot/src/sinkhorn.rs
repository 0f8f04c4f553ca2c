//! Log-domain Sinkhorn iterations for entropic optimal transport.
//!
//! Solves the masking regularized optimal transport problem of the paper's
//! Definition 3:
//!
//! ```text
//! OT_λ(a, b) = min_{P ∈ Γ(a,b)} ⟨P, C⟩ + λ Σ_ij P_ij log P_ij
//! ```
//!
//! The iterations run entirely on dual potentials `(f, g)` with log-sum-exp
//! reductions, so they are stable for any `λ > 0` — including the λ = 130 the
//! paper uses on [0,1]-normalized data *and* tiny λ where the kernel
//! `exp(−C/λ)` would underflow in the primal domain.

use scis_tensor::exec::for_row_spans;
use scis_tensor::fastmath::{fast_exp, fast_exp_shifted};
use scis_tensor::ops::to_f32_vec;
use scis_tensor::{ExecPolicy, Matrix, Precision, RunDeadline};

/// Minimum number of cost-matrix cells (`n · m`) before the per-iteration
/// sweeps (and the other per-cell `exp` passes over a solved problem) go
/// parallel: below this, thread-spawn overhead dominates, and DIM's
/// per-batch solves (≤ a few hundred rows) stay on the serial fast path.
pub(crate) const PAR_MIN_CELLS: usize = 1 << 15;

/// Tuning knobs for the Sinkhorn solver.
#[derive(Debug, Clone)]
pub struct SinkhornOptions {
    /// Entropic regularization strength λ (paper hyper-parameter; 130 in the
    /// experiments).
    pub lambda: f64,
    /// Maximum number of (f, g) sweeps.
    pub max_iters: usize,
    /// Convergence threshold on the L1 marginal violation of the plan.
    pub tol: f64,
    /// Execution policy for the row/column sweeps. Parallelism never changes
    /// results — sweeps partition rows across workers with ordered
    /// reductions, so solves are bit-identical under any policy.
    pub exec: ExecPolicy,
    /// Cooperative run deadline, polled at sweep boundaries. An expired
    /// deadline stops the solve early (reported as unconverged); the default
    /// token never expires.
    pub deadline: RunDeadline,
    /// Compute precision of the per-iteration sweeps. The default
    /// [`Precision::F64`] is the bit-stable reference path. Under
    /// [`Precision::F32`] the cost matrix is stored as `f32`, `C/λ` becomes
    /// a multiply by `1/λ`, and the sweep exponentials use the polynomial
    /// [`fast_exp`] — accumulators and potentials stay `f64`, the objective
    /// (and any on-demand plan) is always evaluated from the full-precision
    /// cost with libm `exp`, and results remain bit-identical across thread
    /// counts *within* the mode. Opt-in via `AccelConfig::f32_compute`
    /// upstream.
    pub precision: Precision,
}

impl Default for SinkhornOptions {
    fn default() -> Self {
        Self {
            lambda: 130.0,
            max_iters: 500,
            tol: 1e-9,
            exec: ExecPolicy::default(),
            deadline: RunDeadline::none(),
            precision: Precision::default(),
        }
    }
}

impl SinkhornOptions {
    /// Convenience constructor fixing λ, keeping default iteration limits.
    pub fn with_lambda(lambda: f64) -> Self {
        Self {
            lambda,
            ..Self::default()
        }
    }

    /// Fluent setter for [`SinkhornOptions::lambda`].
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Fluent setter for [`SinkhornOptions::max_iters`].
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Fluent setter for [`SinkhornOptions::tol`].
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Fluent setter for [`SinkhornOptions::exec`].
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Fluent setter for [`SinkhornOptions::deadline`].
    pub fn deadline(mut self, deadline: RunDeadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Fluent setter for [`SinkhornOptions::precision`].
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Output of a Sinkhorn solve.
///
/// The transport plan is not stored: it is a function of the cost and the
/// duals, `log P_ij = log a_i + log b_j + (f_i + g_j − C_ij)/λ`, which
/// [`SinkhornResult::plan`] materializes on demand. The objective terms are
/// reduced from `log P` during the solve, and the DIM gradient streams
/// `P` row by row (see [`crate::grad`]), so no `n x m` plan buffer is built
/// on the training path.
#[derive(Debug, Clone)]
pub struct SinkhornResult {
    /// Dual potential on the first marginal (length `n`).
    pub f: Vec<f64>,
    /// Dual potential on the second marginal (length `m`).
    pub g: Vec<f64>,
    /// Sharp transport cost `⟨P, C⟩`.
    pub transport_cost: f64,
    /// Regularized objective `⟨P, C⟩ + λ Σ P log P` (Definition 3's value).
    pub reg_value: f64,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Whether the marginal tolerance was met within `max_iters`.
    pub converged: bool,
    /// `log a` (−∞ on zero-weight entries).
    pub(crate) log_a: Vec<f64>,
    /// `log b` (−∞ on zero-weight entries).
    pub(crate) log_b: Vec<f64>,
    /// λ of the solve that produced the duals.
    pub(crate) lambda: f64,
}

impl SinkhornResult {
    /// `log P_ij` for the plan's row `i`, written into `out` (length `m`).
    ///
    /// This is the one expression every consumer of the plan evaluates —
    /// the objective epilogue, [`SinkhornResult::plan`] and the streamed
    /// gradient — so they all see the same bits for the same cell.
    #[inline]
    pub(crate) fn log_plan_row(&self, i: usize, cost_row: &[f64], out: &mut [f64]) {
        let (la, fi, lam) = (self.log_a[i], self.f[i], self.lambda);
        for ((o, &c), (&lb, &gj)) in out
            .iter_mut()
            .zip(cost_row)
            .zip(self.log_b.iter().zip(&self.g))
        {
            *o = la + lb + (fi + gj - c) / lam;
        }
    }

    /// Materializes the transport plan `P` (`n x m`, rows sum to `a`, cols
    /// to `b`) from the cost matrix the solve ran on.
    ///
    /// Serial, and builds the whole `n x m` matrix: the training path never
    /// calls it. It serves tests, the critic's plan-based gradient and
    /// benches.
    ///
    /// # Panics
    /// Panics if `cost` does not have the solved problem's shape.
    pub fn plan(&self, cost: &Matrix) -> Matrix {
        let (n, m) = (self.f.len(), self.g.len());
        assert_eq!(cost.shape(), (n, m), "SinkhornResult::plan: cost shape");
        let mut plan = Matrix::zeros(n, m);
        for i in 0..n {
            let prow = plan.row_mut(i);
            self.log_plan_row(i, cost.row(i), prow);
            for p in prow.iter_mut() {
                *p = p.exp();
            }
        }
        plan
    }
}

/// Structured failure from a fallible Sinkhorn solve.
///
/// Every condition here was previously an `assert!`/`debug_assert!` panic;
/// [`try_sinkhorn`] surfaces them as values so callers embedded in long
/// training runs can degrade gracefully instead of aborting the process.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkhornError {
    /// A marginal or potential vector length disagrees with the cost shape.
    DimensionMismatch {
        /// Which input was mis-sized.
        what: &'static str,
        /// Length found.
        got: usize,
        /// Length required by the cost matrix.
        expected: usize,
    },
    /// λ ≤ 0 or non-finite — the entropic problem is undefined.
    BadLambda {
        /// The offending λ.
        lambda: f64,
    },
    /// A marginal is not a probability vector (negative/non-finite entries,
    /// or mass not summing to 1 within tolerance), or a warm-start potential
    /// vector carries non-finite entries.
    BadMarginal {
        /// `"a"`, `"b"`, or `"warm-start potentials"`.
        side: &'static str,
        /// Human-readable diagnosis.
        reason: &'static str,
    },
    /// The cost matrix contains a NaN/Inf entry — typically a poisoned
    /// generator batch upstream.
    NonFiniteCost {
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
}

impl std::fmt::Display for SinkhornError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkhornError::DimensionMismatch {
                what,
                got,
                expected,
            } => {
                write!(
                    f,
                    "sinkhorn: {} length mismatch ({} vs expected {})",
                    what, got, expected
                )
            }
            SinkhornError::BadLambda { lambda } => {
                write!(
                    f,
                    "sinkhorn: lambda must be positive and finite, got {}",
                    lambda
                )
            }
            SinkhornError::BadMarginal { side, reason } => {
                write!(
                    f,
                    "sinkhorn: marginal {:?} is not a probability vector ({})",
                    side, reason
                )
            }
            SinkhornError::NonFiniteCost { row, col } => {
                write!(f, "sinkhorn: non-finite cost entry at ({}, {})", row, col)
            }
        }
    }
}

impl std::error::Error for SinkhornError {}

/// Validates solver inputs, returning the first structural defect found.
fn validate_inputs(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
) -> Result<(), SinkhornError> {
    let (n, m) = cost.shape();
    if a.len() != n {
        return Err(SinkhornError::DimensionMismatch {
            what: "first marginal",
            got: a.len(),
            expected: n,
        });
    }
    if b.len() != m {
        return Err(SinkhornError::DimensionMismatch {
            what: "second marginal",
            got: b.len(),
            expected: m,
        });
    }
    if !(opts.lambda.is_finite() && opts.lambda > 0.0) {
        return Err(SinkhornError::BadLambda {
            lambda: opts.lambda,
        });
    }
    for (side, w) in [("a", a), ("b", b)] {
        let mut sum = 0.0;
        for &v in w {
            if !v.is_finite() {
                return Err(SinkhornError::BadMarginal {
                    side,
                    reason: "non-finite entry",
                });
            }
            if v < 0.0 {
                return Err(SinkhornError::BadMarginal {
                    side,
                    reason: "negative entry",
                });
            }
            sum += v;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(SinkhornError::BadMarginal {
                side,
                reason: "mass does not sum to 1",
            });
        }
        if w.iter().all(|&v| v == 0.0) {
            return Err(SinkhornError::BadMarginal {
                side,
                reason: "all entries zero",
            });
        }
    }
    for i in 0..n {
        for (j, &c) in cost.row(i).iter().enumerate() {
            if !c.is_finite() {
                return Err(SinkhornError::NonFiniteCost { row: i, col: j });
            }
        }
    }
    Ok(())
}

/// Numerically stable `log Σ exp(t_j)` over a materialized term buffer.
///
/// The ascending `exp` sum reproduces, bit for bit, the historical two-pass
/// iterator formulation — the buffer only avoids evaluating each term's
/// arithmetic twice.
///
/// The max fold runs over four independent lanes, which breaks the
/// one-`f64::max`-latency-per-element chain and returns the same bits as
/// the sequential fold. `f64::max` ignores NaN whatever the order, so the
/// lanes agree on the largest value and can differ only in which signed
/// zero represents a zero maximum. That choice never reaches the result:
/// `t − (±0)` is the same for every `t` up to the sign of a zero, which
/// `exp` maps to 1 either way, and `±0 + ln(sum)` is the same as well,
/// since `sum ≥ 1`.
#[inline]
fn lse_terms(terms: &[f64]) -> f64 {
    let (mut m0, mut m1, mut m2, mut m3) = (
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    let mut chunks = terms.chunks_exact(4);
    for ch in &mut chunks {
        m0 = f64::max(m0, ch[0]);
        m1 = f64::max(m1, ch[1]);
        m2 = f64::max(m2, ch[2]);
        m3 = f64::max(m3, ch[3]);
    }
    for &t in chunks.remainder() {
        m0 = f64::max(m0, t);
    }
    let max = f64::max(f64::max(m0, m1), f64::max(m2, m3));
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut sum = 0.0;
    for &t in terms {
        sum += (t - max).exp();
    }
    max + sum.ln()
}

/// [`lse_terms`] with the polynomial [`fast_exp`] — accelerated-mode only.
///
/// It shares the reference's four-lane max fold. Two departures from the
/// reference, both legal in accelerated mode (each row is still produced
/// by exactly one worker with a fixed reduction structure, so results stay
/// bit-identical across thread counts *within* the mode):
///
/// * exponentiation ([`fast_exp_shifted`]) runs as its own in-place pass
///   so the polynomial pipelines/vectorizes across the row instead of
///   serializing on the sum accumulator (the buffer is consumed);
/// * the `exp` sum uses the same four-accumulator shape as `ops::dot`.
#[inline]
fn lse_terms_fast(terms: &mut [f64]) -> f64 {
    let (mut m0, mut m1, mut m2, mut m3) = (
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    let mut chunks = terms.chunks_exact(4);
    for ch in &mut chunks {
        m0 = f64::max(m0, ch[0]);
        m1 = f64::max(m1, ch[1]);
        m2 = f64::max(m2, ch[2]);
        m3 = f64::max(m3, ch[3]);
    }
    for &t in chunks.remainder() {
        m0 = f64::max(m0, t);
    }
    let max = f64::max(f64::max(m0, m1), f64::max(m2, m3));
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    fast_exp_shifted(terms, max);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut chunks = terms.chunks_exact(4);
    for ch in &mut chunks {
        s0 += ch[0];
        s1 += ch[1];
        s2 += ch[2];
        s3 += ch[3];
    }
    for &t in chunks.remainder() {
        s0 += t;
    }
    let sum = (s0 + s1) + (s2 + s3);
    max + sum.ln()
}

/// Runs log-domain Sinkhorn for marginals `a` (len n) and `b` (len m) and
/// cost matrix `cost` (`n x m`).
///
/// ```
/// use scis_ot::{sinkhorn, SinkhornOptions};
/// use scis_tensor::Matrix;
///
/// let cost = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
/// let r = sinkhorn(&cost, &[0.5, 0.5], &[0.5, 0.5],
///                  &SinkhornOptions::default().lambda(0.05).max_iters(1000));
/// assert!(r.converged);
/// // identity matching is free -> transport cost near zero
/// assert!(r.transport_cost < 1e-3);
/// ```
///
/// # Panics
/// Panics on dimension mismatch, non-positive λ, or weights that do not
/// form probability vectors (up to 1e-6). Use [`try_sinkhorn`] for a
/// fallible variant that reports these as [`SinkhornError`] values.
pub fn sinkhorn(cost: &Matrix, a: &[f64], b: &[f64], opts: &SinkhornOptions) -> SinkhornResult {
    try_sinkhorn(cost, a, b, opts).unwrap_or_else(|e| panic!("{}", e))
}

/// Fallible Sinkhorn solve: validates the cost matrix, marginals, and λ up
/// front and returns a structured [`SinkhornError`] instead of panicking.
pub fn try_sinkhorn(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
) -> Result<SinkhornResult, SinkhornError> {
    validate_inputs(cost, a, b, opts)?;
    Ok(sinkhorn_impl(
        cost,
        a,
        b,
        vec![0.0; a.len()],
        vec![0.0; b.len()],
        opts,
    ))
}

fn sinkhorn_impl(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    f_init: Vec<f64>,
    g_init: Vec<f64>,
    opts: &SinkhornOptions,
) -> SinkhornResult {
    let (n, m) = cost.shape();
    debug_assert_eq!(f_init.len(), n, "sinkhorn: f potential length mismatch");
    debug_assert_eq!(g_init.len(), m, "sinkhorn: g potential length mismatch");

    let lam = opts.lambda;
    let log_a: Vec<f64> = a
        .iter()
        .map(|&w| if w > 0.0 { w.ln() } else { f64::NEG_INFINITY })
        .collect();
    let log_b: Vec<f64> = b
        .iter()
        .map(|&w| if w > 0.0 { w.ln() } else { f64::NEG_INFINITY })
        .collect();

    let mut f = f_init;
    let mut g = g_init;
    let mut iterations = 0;
    let mut converged = false;

    // Sweeps partition independent rows (resp. columns) across scoped
    // workers; each entry is produced by exactly one worker with the same
    // arithmetic as the serial loop, so solves are bit-identical under any
    // thread count. Small problems stay serial (see PAR_MIN_CELLS).
    let threads = if n * m < PAR_MIN_CELLS {
        1
    } else {
        opts.exec.resolve()
    };
    let mut row_violation = vec![0.0; n];

    // A transposed copy of the cost lets the g-sweep walk contiguous rows
    // instead of strided columns. The values and their iteration order are
    // unchanged, so the default path does not move a bit; the one-time
    // blocked `n·m` copy is amortized over every sweep of every iteration.
    //
    // Accelerated mode: `f32` cost storage (halved sweep bandwidth), the
    // division by λ folded into a reciprocal multiply, and `fast_exp` in
    // the sweeps. Potentials and accumulators stay `f64`, and the objective
    // below is always reduced from the full-precision cost. Each mode builds
    // only the copies its own loop reads; the f32 transpose is narrowed
    // straight from the f64 cost.
    let f32_mode = opts.precision.is_f32();
    let (cost_t, cost32, cost_t32) = if f32_mode {
        (
            Matrix::zeros(0, 0),
            to_f32_vec(cost),
            cost.transpose_map(|v| v as f32),
        )
    } else {
        (cost.transpose(), Vec::new(), Vec::new())
    };
    let inv_lam = 1.0 / lam;

    if f32_mode && opts.max_iters > 0 {
        // ---- accelerated iteration loop (within-mode deterministic) ----
        // (An explicit zero-iteration budget skips the loop entirely so the
        // warm-started potentials pass through untouched, like the default.)
        //
        // Two reassociations make this loop cheaper than the reference, both
        // legal in accelerated mode (only cross-thread bit-identity within
        // the mode is required, and every worker reads the same per-sweep
        // buffers):
        //
        // 1. The affine part of each logit is hoisted out of the n·m cell
        //    loop: `g_pre[j] = log b_j + g_j·invλ` is computed once per
        //    f-sweep, so the inner loop is one fused multiply-subtract per
        //    cell (`g_pre[j] − C_ij·invλ`). Same for the g-sweep.
        // 2. The dedicated marginal-violation sweep — a third of all sweep
        //    work — disappears. Right after an f-sweep against duals `g`,
        //    the implied row sum of the previous iterate collapses to
        //    `Σ_j P_ij = exp(log a_i + (f_i_old − f_i_new)·invλ)` because the
        //    sweep's LSE value *is* `−f_i_new/λ`. So each f-sweep doubles as
        //    the convergence check of the iterate the previous pass produced,
        //    at the cost of one O(n) pass. A trailing f-sweep performs the
        //    final check once the (f,g)-update budget is spent.
        let mut g_pre = vec![0.0; m];
        let mut f_pre = vec![0.0; n];
        let mut f_prev = vec![0.0; n];
        let mut it = 0;
        loop {
            // Cooperative cancellation: stop at a sweep boundary, leaving the
            // potentials from the completed sweeps (reported unconverged).
            if opts.deadline.expired() {
                break;
            }
            // f_i ← −λ LSE_j [ g_pre_j − C_ij·invλ ]
            for (p, (&lb, &gj)) in g_pre.iter_mut().zip(log_b.iter().zip(&g)) {
                *p = lb + gj * inv_lam;
            }
            f_prev.copy_from_slice(&f);
            {
                let g_pre = &g_pre;
                for_row_spans(&mut f, 1, threads, |r0, span| {
                    let mut terms = vec![0.0; m];
                    for (di, fi) in span.iter_mut().enumerate() {
                        let row = &cost32[(r0 + di) * m..(r0 + di) * m + m];
                        for ((t, &p), &c) in terms.iter_mut().zip(g_pre).zip(row) {
                            *t = p - c as f64 * inv_lam;
                        }
                        *fi = -lam * lse_terms_fast(&mut terms);
                    }
                });
            }
            if it > 0 {
                // Fused check of the iterate completed by the previous pass.
                let mut violation = 0.0;
                for i in 0..n {
                    let row_sum = fast_exp(log_a[i] + (f_prev[i] - f[i]) * inv_lam);
                    violation += (row_sum - a[i]).abs();
                }
                if violation < opts.tol {
                    converged = true;
                    iterations = it;
                    break;
                }
            }
            if it == opts.max_iters {
                break;
            }
            iterations = it + 1;
            // g_j ← −λ LSE_i [ f_pre_i − C_ij·invλ ]
            for (p, (&la, &fi)) in f_pre.iter_mut().zip(log_a.iter().zip(&f)) {
                *p = la + fi * inv_lam;
            }
            {
                let f_pre = &f_pre;
                for_row_spans(&mut g, 1, threads, |c0, span| {
                    let mut terms = vec![0.0; n];
                    for (dj, gj) in span.iter_mut().enumerate() {
                        let col = &cost_t32[(c0 + dj) * n..(c0 + dj) * n + n];
                        for ((t, &p), &c) in terms.iter_mut().zip(f_pre).zip(col) {
                            *t = p - c as f64 * inv_lam;
                        }
                        *gj = -lam * lse_terms_fast(&mut terms);
                    }
                });
            }
            it += 1;
        }
    }

    let default_iters = if f32_mode { 0 } else { opts.max_iters };
    for it in 0..default_iters {
        // Cooperative cancellation: stop at a sweep boundary, leaving the
        // potentials from the completed sweeps (reported unconverged).
        if opts.deadline.expired() {
            break;
        }
        iterations = it + 1;
        // f_i ← −λ LSE_j [ log b_j + (g_j − C_ij)/λ ]
        // Span iteration gives each worker one term buffer for its whole
        // block of rows rather than an allocation per row; the cell loops
        // walk zipped slices, so they carry no bounds checks.
        {
            let g = &g;
            for_row_spans(&mut f, 1, threads, |r0, span| {
                let mut terms = vec![0.0; m];
                for (di, fi) in span.iter_mut().enumerate() {
                    let row = cost.row(r0 + di);
                    for ((t, &c), (&lb, &gj)) in terms.iter_mut().zip(row).zip(log_b.iter().zip(g))
                    {
                        *t = lb + (gj - c) / lam;
                    }
                    *fi = -lam * lse_terms(&terms);
                }
            });
        }
        // g_j ← −λ LSE_i [ log a_i + (f_i − C_ij)/λ ]
        {
            let f = &f;
            for_row_spans(&mut g, 1, threads, |c0, span| {
                let mut terms = vec![0.0; n];
                for (dj, gj) in span.iter_mut().enumerate() {
                    let col = cost_t.row(c0 + dj);
                    for ((t, &c), (&la, &fi)) in terms.iter_mut().zip(col).zip(log_a.iter().zip(f))
                    {
                        *t = la + (fi - c) / lam;
                    }
                    *gj = -lam * lse_terms(&terms);
                }
            });
        }
        // After a g-update, column marginals are exact; check row marginals.
        // Per-row partials are summed in ascending row order below, so the
        // reduction matches the serial accumulation bit for bit.
        {
            let (f, g) = (&f, &g);
            for_row_spans(&mut row_violation, 1, threads, |r0, span| {
                for (di, slot) in span.iter_mut().enumerate() {
                    let i = r0 + di;
                    let mut row_sum = 0.0;
                    let (la, fi) = (log_a[i], f[i]);
                    for (&c, (&lb, &gj)) in cost.row(i).iter().zip(log_b.iter().zip(g)) {
                        row_sum += (la + lb + (fi + gj - c) / lam).exp();
                    }
                    *slot = (row_sum - a[i]).abs();
                }
            });
        }
        let violation: f64 = row_violation.iter().sum();
        if violation < opts.tol {
            converged = true;
            break;
        }
    }

    let mut result = SinkhornResult {
        f,
        g,
        transport_cost: 0.0,
        reg_value: 0.0,
        iterations,
        converged,
        log_a,
        log_b,
        lambda: lam,
    };
    // Plan-free epilogue: one parallel row pass takes each row's ⟨P,C⟩ and
    // Σ P log P straight from log P (no plan buffer, no second `ln`); cells
    // whose `exp` underflows to zero carry no mass and are skipped. The row
    // partials are summed in ascending row order, so the objective is
    // bit-identical at any thread count.
    let mut partials = vec![0.0; 2 * n];
    {
        let r = &result;
        for_row_spans(&mut partials, 2, threads, |r0, span| {
            let mut log_p = vec![0.0; m];
            for (di, out) in span.chunks_exact_mut(2).enumerate() {
                let crow = cost.row(r0 + di);
                r.log_plan_row(r0 + di, crow, &mut log_p);
                let (mut tc, mut ne) = (0.0, 0.0);
                for (&lp, &c) in log_p.iter().zip(crow) {
                    let p = lp.exp();
                    if p > 0.0 {
                        tc += p * c;
                        ne += p * lp;
                    }
                }
                out[0] = tc;
                out[1] = ne;
            }
        });
    }
    let (mut transport_cost, mut neg_entropy) = (0.0, 0.0);
    for row in partials.chunks_exact(2) {
        transport_cost += row[0];
        neg_entropy += row[1];
    }
    result.transport_cost = transport_cost;
    result.reg_value = transport_cost + lam * neg_entropy;
    result
}

/// Sinkhorn with uniform marginals `a = b = 1/n` — the empirical-measure
/// setting of the paper (`Γ_{n,n}` in Definition 2).
pub fn sinkhorn_uniform(cost: &Matrix, opts: &SinkhornOptions) -> SinkhornResult {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n as f64; n];
    let b = vec![1.0 / m as f64; m];
    sinkhorn(cost, &a, &b, opts)
}

/// Fallible uniform-marginal solve — see [`try_sinkhorn`].
pub fn try_sinkhorn_uniform(
    cost: &Matrix,
    opts: &SinkhornOptions,
) -> Result<SinkhornResult, SinkhornError> {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n.max(1) as f64; n];
    let b = vec![1.0 / m.max(1) as f64; m];
    try_sinkhorn(cost, &a, &b, opts)
}

/// Log-domain Sinkhorn continued from given dual potentials (warm start).
/// Identical to [`sinkhorn`] except for the initialization of `(f, g)`.
///
/// # Panics
/// Panics on invalid inputs or mis-sized potentials; use
/// [`try_sinkhorn_warm`] for the fallible variant the dual cache relies on.
pub fn sinkhorn_warm(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    f0: Vec<f64>,
    g0: Vec<f64>,
    opts: &SinkhornOptions,
) -> SinkhornResult {
    try_sinkhorn_warm(cost, a, b, f0, g0, opts).unwrap_or_else(|e| panic!("{}", e))
}

/// Fallible warm-started solve: validates inputs *and* the initial potential
/// lengths, returning [`SinkhornError::DimensionMismatch`] instead of
/// panicking. This lets the dual cache degrade to a cold solve when a stale
/// entry no longer matches the batch shape, rather than aborting a guarded
/// training run.
pub fn try_sinkhorn_warm(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    f0: Vec<f64>,
    g0: Vec<f64>,
    opts: &SinkhornOptions,
) -> Result<SinkhornResult, SinkhornError> {
    validate_inputs(cost, a, b, opts)?;
    if f0.len() != a.len() {
        return Err(SinkhornError::DimensionMismatch {
            what: "f potential",
            got: f0.len(),
            expected: a.len(),
        });
    }
    if g0.len() != b.len() {
        return Err(SinkhornError::DimensionMismatch {
            what: "g potential",
            got: g0.len(),
            expected: b.len(),
        });
    }
    for &v in f0.iter().chain(g0.iter()) {
        if !v.is_finite() {
            return Err(SinkhornError::BadMarginal {
                side: "warm-start potentials",
                reason: "non-finite entry",
            });
        }
    }
    Ok(sinkhorn_impl(cost, a, b, f0, g0, opts))
}

/// ε-scaling (annealed) Sinkhorn: solves a geometric sequence of
/// regularization levels `λ_0 > λ_1 > … > λ`, warm-starting the dual
/// potentials at each stage. For small target λ this converges in a small
/// fraction of the iterations cold-start Sinkhorn needs — the classic
/// trick from Schmitzer (2019); exactness is unchanged because only the
/// final stage's fixed point is reported.
pub fn sinkhorn_eps_scaling(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
    n_stages: usize,
) -> SinkhornResult {
    if let Err(e) = validate_inputs(cost, a, b, opts) {
        panic!("{}", e);
    }
    eps_scaling_impl(cost, a, b, opts, n_stages)
}

/// Fallible ε-scaling solve — see [`sinkhorn_eps_scaling`].
pub fn try_sinkhorn_eps_scaling(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
    n_stages: usize,
) -> Result<SinkhornResult, SinkhornError> {
    validate_inputs(cost, a, b, opts)?;
    Ok(eps_scaling_impl(cost, a, b, opts, n_stages))
}

fn eps_scaling_impl(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
    n_stages: usize,
) -> SinkhornResult {
    assert!(
        n_stages >= 1,
        "sinkhorn_eps_scaling: need at least one stage"
    );
    let max_cost = cost.max().max(opts.lambda);
    // start near the cost scale (plans ~ product measure, trivially solved)
    let lambda_start = max_cost.max(opts.lambda);
    let ratio = if n_stages > 1 {
        (opts.lambda / lambda_start).powf(1.0 / (n_stages - 1) as f64)
    } else {
        1.0
    };
    let mut f = vec![0.0; a.len()];
    let mut g = vec![0.0; b.len()];
    let mut lambda = lambda_start;
    let mut result = None;
    for stage in 0..n_stages {
        if stage + 1 == n_stages {
            lambda = opts.lambda;
        }
        let stage_opts = SinkhornOptions {
            lambda,
            // intermediate stages only need rough potentials
            max_iters: if stage + 1 == n_stages {
                opts.max_iters
            } else {
                opts.max_iters / 4 + 1
            },
            tol: if stage + 1 == n_stages {
                opts.tol
            } else {
                opts.tol * 100.0
            },
            exec: opts.exec,
            deadline: opts.deadline.clone(),
            precision: opts.precision,
        };
        let r = sinkhorn_impl(cost, a, b, f, g, &stage_opts);
        f = r.f.clone();
        g = r.g.clone();
        result = Some(r);
        lambda *= ratio;
    }
    result.expect("at least one stage ran")
}

/// Uniform-marginal convenience wrapper for [`sinkhorn_eps_scaling`].
pub fn sinkhorn_eps_scaling_uniform(
    cost: &Matrix,
    opts: &SinkhornOptions,
    n_stages: usize,
) -> SinkhornResult {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n as f64; n];
    let b = vec![1.0 / m as f64; m];
    sinkhorn_eps_scaling(cost, &a, &b, opts, n_stages)
}

/// Retry policy when a plain solve fails to reach the marginal tolerance:
/// each escalation attempt re-solves with [`sinkhorn_eps_scaling`], doubling
/// the number of annealing stages (starting from `base_stages`) and growing
/// the iteration budget by `iter_growth` per attempt. Annealing alone cannot
/// rescue an iteration-starved solve — each stage reuses the caller's
/// `max_iters` — so the budget must grow with the stage count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Maximum number of ε-scaling retries after a failed plain solve.
    pub max_attempts: usize,
    /// Stage count of the first retry; attempt `i` uses `base_stages << i`.
    pub base_stages: usize,
    /// Iteration-budget multiplier: attempt `i` runs with
    /// `max_iters * iter_growth^(i+1)`.
    pub iter_growth: usize,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            base_stages: 4,
            iter_growth: 4,
        }
    }
}

impl EscalationPolicy {
    /// A policy that never escalates (plain solve only).
    pub fn none() -> Self {
        Self {
            max_attempts: 0,
            base_stages: 4,
            iter_growth: 1,
        }
    }
}

/// Per-solve accounting of the escalating Sinkhorn entry points, merged
/// upward into the pipeline's anomaly record and telemetry counters.
///
/// `solves`, `iterations` and `converged` track *all* tracked solves (the
/// value-flow channel of the telemetry layer); `escalations` and
/// `unconverged` keep their original meaning as recovery events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Solves attempted through the escalating entry points.
    pub solves: usize,
    /// Total Sinkhorn sweep iterations, summed over every attempt of every
    /// solve (ε-scaling attempts report their final stage's sweeps).
    pub iterations: usize,
    /// Solves whose final attempt met the marginal tolerance.
    pub converged: usize,
    /// ε-scaling retries performed across solves.
    pub escalations: usize,
    /// Solves that stayed unconverged even after the last retry.
    pub unconverged: usize,
    /// Solves that started from cached dual potentials instead of zeros.
    pub warm_starts: usize,
    /// Estimated sweeps avoided by warm-starting: per warm solve, the most
    /// recent comparable cold solve's iteration count minus this solve's,
    /// saturating at zero. An estimate for telemetry, not a measurement.
    pub iters_saved: usize,
    /// Per-solve iteration counts, retained for histogram emission. A
    /// bounded scratch: the first [`TRACKED_SOLVE_CAP`] solves absorbed into
    /// this record keep their individual counts (enough for the per-batch
    /// records the telemetry layer reads; epoch-level aggregates saturate
    /// and rely on `iterations` for the total).
    pub solve_iters: [u32; TRACKED_SOLVE_CAP],
    /// Number of valid entries in `solve_iters`.
    pub tracked_solves: usize,
}

/// Capacity of the per-solve iteration scratch in [`SolveStats`] (an MS
/// divergence evaluation performs 3 solves; 8 leaves headroom).
pub const TRACKED_SOLVE_CAP: usize = 8;

impl SolveStats {
    /// Accumulates another stats record into this one. Per-solve iteration
    /// entries are carried over until [`TRACKED_SOLVE_CAP`] is reached.
    pub fn absorb(&mut self, other: SolveStats) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.converged += other.converged;
        self.escalations += other.escalations;
        self.unconverged += other.unconverged;
        self.warm_starts += other.warm_starts;
        self.iters_saved += other.iters_saved;
        for i in 0..other.tracked_solves {
            self.note_solve_iters(other.solve_iters[i] as usize);
        }
    }

    /// Records one solve's total iteration count into the per-solve scratch
    /// (silently saturates past [`TRACKED_SOLVE_CAP`] entries).
    pub fn note_solve_iters(&mut self, iters: usize) {
        if self.tracked_solves < TRACKED_SOLVE_CAP {
            self.solve_iters[self.tracked_solves] = iters.min(u32::MAX as usize) as u32;
            self.tracked_solves += 1;
        }
    }

    /// The retained per-solve iteration counts, in solve order.
    pub fn tracked_iters(&self) -> &[u32] {
        &self.solve_iters[..self.tracked_solves]
    }

    /// Whether any recovery event fired (escalation or final non-
    /// convergence). The always-on `solves`/`iterations`/`converged`
    /// counters — and the warm-start accounting, which is an optimization,
    /// not a recovery — do not make a run anomalous.
    pub fn is_clean(&self) -> bool {
        self.escalations == 0 && self.unconverged == 0
    }
}

/// Sinkhorn with non-convergence escalation: runs a plain solve, then —
/// while the marginal tolerance is unmet and attempts remain — re-solves
/// with ε-scaling at a growing stage count. Returns the best result plus
/// the retry accounting; never panics on bad inputs.
pub fn try_sinkhorn_escalated(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    validate_inputs(cost, a, b, opts)?;
    let mut stats = SolveStats {
        solves: 1,
        ..SolveStats::default()
    };
    let mut result = sinkhorn_impl(cost, a, b, vec![0.0; a.len()], vec![0.0; b.len()], opts);
    stats.iterations += result.iterations;
    let mut stages = policy.base_stages.max(2);
    let growth = policy.iter_growth.max(1);
    let mut budget = opts.max_iters;
    for _ in 0..policy.max_attempts {
        if result.converged {
            break;
        }
        stats.escalations += 1;
        budget = budget.saturating_mul(growth);
        let esc_opts = SinkhornOptions {
            max_iters: budget,
            ..opts.clone()
        };
        result = eps_scaling_impl(cost, a, b, &esc_opts, stages);
        stats.iterations += result.iterations;
        stages *= 2;
    }
    if result.converged {
        stats.converged += 1;
    } else {
        stats.unconverged += 1;
    }
    stats.note_solve_iters(stats.iterations);
    Ok((result, stats))
}

/// Uniform-marginal convenience wrapper for [`try_sinkhorn_escalated`].
pub fn try_sinkhorn_uniform_escalated(
    cost: &Matrix,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n.max(1) as f64; n];
    let b = vec![1.0 / m.max(1) as f64; m];
    try_sinkhorn_escalated(cost, &a, &b, opts, policy)
}

/// Warm-started variant of [`try_sinkhorn_escalated`]: the first attempt
/// starts from the supplied `(f0, g0)` potentials (stats record one
/// `warm_starts`); escalation retries — if the warm attempt misses the
/// tolerance — fall back to the cold ε-scaling ladder, exactly as in the
/// cold entry point. Returns a structured error (never panics) on mis-sized
/// or non-finite potentials so the cache layer can degrade to a cold solve.
pub fn try_sinkhorn_warm_escalated(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    f0: Vec<f64>,
    g0: Vec<f64>,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    let mut result = try_sinkhorn_warm(cost, a, b, f0, g0, opts)?;
    let mut stats = SolveStats {
        solves: 1,
        warm_starts: 1,
        iterations: result.iterations,
        ..SolveStats::default()
    };
    let mut stages = policy.base_stages.max(2);
    let growth = policy.iter_growth.max(1);
    let mut budget = opts.max_iters;
    for _ in 0..policy.max_attempts {
        if result.converged {
            break;
        }
        stats.escalations += 1;
        budget = budget.saturating_mul(growth);
        let esc_opts = SinkhornOptions {
            max_iters: budget,
            ..opts.clone()
        };
        result = eps_scaling_impl(cost, a, b, &esc_opts, stages);
        stats.iterations += result.iterations;
        stages *= 2;
    }
    if result.converged {
        stats.converged += 1;
    } else {
        stats.unconverged += 1;
    }
    stats.note_solve_iters(stats.iterations);
    Ok((result, stats))
}

/// Uniform-marginal convenience wrapper for [`try_sinkhorn_warm_escalated`].
pub fn try_sinkhorn_uniform_warm_escalated(
    cost: &Matrix,
    f0: Vec<f64>,
    g0: Vec<f64>,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n.max(1) as f64; n];
    let b = vec![1.0 / m.max(1) as f64; m];
    try_sinkhorn_warm_escalated(cost, &a, &b, f0, g0, opts, policy)
}

/// Uniform-marginal ε-scaling solve with [`SolveStats`] accounting — the
/// cold-start path the accelerated layer uses for a batch's *first* solve
/// when ε-scaling of cold solves is enabled. The reported iteration count is
/// the final stage's sweeps (the comparable-budget number), matching how
/// escalated solves report.
pub fn try_sinkhorn_uniform_eps_scaling(
    cost: &Matrix,
    opts: &SinkhornOptions,
    n_stages: usize,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n.max(1) as f64; n];
    let b = vec![1.0 / m.max(1) as f64; m];
    let result = try_sinkhorn_eps_scaling(cost, &a, &b, opts, n_stages)?;
    let mut stats = SolveStats {
        solves: 1,
        iterations: result.iterations,
        converged: result.converged as usize,
        unconverged: (!result.converged) as usize,
        ..SolveStats::default()
    };
    stats.note_solve_iters(stats.iterations);
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_cost() -> Matrix {
        Matrix::from_rows(&[&[0.0, 1.0, 4.0], &[1.0, 0.0, 1.0], &[4.0, 1.0, 0.0]])
    }

    #[test]
    fn four_lane_lse_matches_the_sequential_fold() {
        // the historical single-chain fold, kept as the reference
        fn sequential(terms: &[f64]) -> f64 {
            let mut max = f64::NEG_INFINITY;
            for &t in terms {
                max = f64::max(max, t);
            }
            if max == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            let mut sum = 0.0;
            for &t in terms {
                sum += (t - max).exp();
            }
            max + sum.ln()
        }
        let pool = [
            0.0,
            -0.0,
            -1.0,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -745.0,
        ];
        // random rows of length 0..=6 over the pool, so signed-zero maxima,
        // NaN, ±∞ and all-−∞ rows all occur
        let mut rng = scis_tensor::Rng64::seed_from_u64(3);
        for k in 0..20_000 {
            let terms: Vec<f64> = (0..k % 7)
                .map(|_| pool[rng.gen_range(pool.len())])
                .collect();
            let (got, want) = (lse_terms(&terms), sequential(&terms));
            assert_eq!(got.to_bits(), want.to_bits(), "{terms:?}");
        }
    }

    #[test]
    fn plan_satisfies_marginals() {
        let c = toy_cost();
        let r = sinkhorn_uniform(
            &c,
            &SinkhornOptions {
                lambda: 0.1,
                max_iters: 20_000,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(
            r.converged,
            "not converged after {} iterations",
            r.iterations
        );
        let plan = r.plan(&c);
        let rows = plan.row_sums();
        let cols = plan.col_sums();
        for v in rows.iter().chain(cols.iter()) {
            assert!((v - 1.0 / 3.0).abs() < 1e-7, "marginal {}", v);
        }
        assert!(plan.as_slice().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn small_lambda_approaches_unregularized_ot() {
        // cost with a perfect matching of cost 0 on the diagonal
        let c = toy_cost();
        let r = sinkhorn_uniform(
            &c,
            &SinkhornOptions {
                lambda: 0.005,
                max_iters: 5000,
                tol: 1e-10,
                ..Default::default()
            },
        );
        // unregularized OT = 0 (identity assignment)
        assert!(r.transport_cost < 0.01, "cost {}", r.transport_cost);
        // plan concentrates on the diagonal
        let plan = r.plan(&c);
        for i in 0..3 {
            assert!(plan[(i, i)] > 0.3, "P[{0}][{0}] = {1}", i, plan[(i, i)]);
        }
    }

    #[test]
    fn large_lambda_spreads_the_plan_to_product_measure() {
        let c = toy_cost();
        let r = sinkhorn_uniform(&c, &SinkhornOptions::with_lambda(1e4));
        for p in r.plan(&c).as_slice() {
            assert!((p - 1.0 / 9.0).abs() < 1e-3, "plan entry {}", p);
        }
    }

    #[test]
    fn handles_nonuniform_marginals() {
        let c = Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]);
        let a = [0.7, 0.3];
        let b = [0.4, 0.6];
        let r = sinkhorn(&c, &a, &b, &SinkhornOptions::with_lambda(0.05));
        let plan = r.plan(&c);
        let rows = plan.row_sums();
        let cols = plan.col_sums();
        assert!((rows[0] - 0.7).abs() < 1e-6);
        assert!((rows[1] - 0.3).abs() < 1e-6);
        assert!((cols[0] - 0.4).abs() < 1e-6);
        assert!((cols[1] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn rectangular_problems_supported() {
        let c = Matrix::from_fn(4, 7, |i, j| ((i as f64) - (j as f64) * 0.5).powi(2));
        let r = sinkhorn_uniform(&c, &SinkhornOptions::with_lambda(0.2));
        assert!(r.converged);
        let plan = r.plan(&c);
        assert_eq!(plan.shape(), (4, 7));
        for v in plan.row_sums() {
            assert!((v - 0.25).abs() < 1e-7);
        }
        for v in plan.col_sums() {
            assert!((v - 1.0 / 7.0).abs() < 1e-7);
        }
    }

    #[test]
    fn stable_under_paper_scale_lambda() {
        // λ = 130 (the paper's setting) with [0,1]-normalized data costs
        let c = Matrix::from_fn(16, 16, |i, j| ((i as f64 - j as f64) / 16.0).powi(2));
        let r = sinkhorn_uniform(&c, &SinkhornOptions::default());
        assert!(r.converged);
        assert!(r.transport_cost.is_finite());
        assert!(r.reg_value.is_finite());
    }

    #[test]
    fn stable_under_tiny_lambda_large_costs() {
        // would underflow e^{-C/λ} in the primal domain: C up to 1e4, λ=1e-3
        let c = Matrix::from_fn(5, 5, |i, j| (i as f64 - j as f64).powi(2) * 400.0);
        let r = sinkhorn_uniform(
            &c,
            &SinkhornOptions {
                lambda: 1e-3,
                max_iters: 2000,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(r.transport_cost.is_finite());
        assert!(r.plan(&c).as_slice().iter().all(|p| p.is_finite()));
        // identity matching is optimal
        assert!(r.transport_cost < 1.0);
    }

    #[test]
    fn identical_points_give_zero_cost() {
        let c = Matrix::zeros(4, 4);
        let r = sinkhorn_uniform(&c, &SinkhornOptions::with_lambda(0.5));
        assert!(r.transport_cost.abs() < 1e-12);
    }

    #[test]
    fn reg_value_includes_entropy_term() {
        let c = Matrix::zeros(2, 2);
        let r = sinkhorn_uniform(&c, &SinkhornOptions::with_lambda(1.0));
        // zero cost → plan is product measure 1/4 each; Σ p log p = −log 4
        assert!(
            (r.reg_value - (-(4.0f64).ln())).abs() < 1e-9,
            "{}",
            r.reg_value
        );
    }

    #[test]
    #[should_panic(expected = "marginal length mismatch")]
    fn rejects_bad_marginal_length() {
        let _ = sinkhorn(
            &Matrix::zeros(2, 2),
            &[1.0],
            &[0.5, 0.5],
            &SinkhornOptions::default(),
        );
    }

    #[test]
    fn try_sinkhorn_reports_structured_errors() {
        let opts = SinkhornOptions::default();
        let half = [0.5, 0.5];
        assert!(matches!(
            try_sinkhorn(&Matrix::zeros(2, 2), &[1.0], &half, &opts),
            Err(SinkhornError::DimensionMismatch {
                what: "first marginal",
                ..
            })
        ));
        assert!(matches!(
            try_sinkhorn(&Matrix::zeros(2, 2), &half, &[1.0, 2.0, 3.0], &opts),
            Err(SinkhornError::DimensionMismatch {
                what: "second marginal",
                ..
            })
        ));
        let bad_lambda = SinkhornOptions {
            lambda: -1.0,
            ..opts.clone()
        };
        assert!(matches!(
            try_sinkhorn(&Matrix::zeros(2, 2), &half, &half, &bad_lambda),
            Err(SinkhornError::BadLambda { .. })
        ));
        let nan_lambda = SinkhornOptions {
            lambda: f64::NAN,
            ..opts.clone()
        };
        assert!(matches!(
            try_sinkhorn(&Matrix::zeros(2, 2), &half, &half, &nan_lambda),
            Err(SinkhornError::BadLambda { .. })
        ));
        assert!(matches!(
            try_sinkhorn(&Matrix::zeros(2, 2), &[0.9, 0.9], &half, &opts),
            Err(SinkhornError::BadMarginal { side: "a", .. })
        ));
        assert!(matches!(
            try_sinkhorn(&Matrix::zeros(2, 2), &half, &[-0.5, 1.5], &opts),
            Err(SinkhornError::BadMarginal { side: "b", .. })
        ));
        let mut c = Matrix::zeros(2, 2);
        c[(1, 0)] = f64::NAN;
        assert_eq!(
            try_sinkhorn(&c, &half, &half, &opts).unwrap_err(),
            SinkhornError::NonFiniteCost { row: 1, col: 0 }
        );
    }

    #[test]
    fn try_sinkhorn_matches_panicking_solver_on_good_inputs() {
        let c = toy_cost();
        let opts = SinkhornOptions {
            lambda: 0.2,
            max_iters: 5000,
            tol: 1e-9,
            ..Default::default()
        };
        let a = sinkhorn_uniform(&c, &opts);
        let b = try_sinkhorn_uniform(&c, &opts).expect("valid inputs");
        assert_eq!(a.reg_value, b.reg_value);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn zero_weight_marginal_entries_are_supported() {
        // a degenerate marginal with zero-mass entries must not yield NaN
        let c = toy_cost();
        let a = [0.5, 0.5, 0.0];
        let b = [0.0, 0.5, 0.5];
        let r = try_sinkhorn(&c, &a, &b, &SinkhornOptions::with_lambda(0.1)).unwrap();
        let plan = r.plan(&c);
        assert!(plan.as_slice().iter().all(|p| p.is_finite() && *p >= 0.0));
        let rows = plan.row_sums();
        assert!(rows[2].abs() < 1e-12, "zero-mass row got mass {}", rows[2]);
        assert!(r.transport_cost.is_finite());
    }
}

#[cfg(test)]
mod epilogue_tests {
    use super::*;
    use crate::cost::masked_sq_cost;
    use scis_tensor::Rng64;

    /// The historical objective: a materialized plan, then one serial
    /// row-major chain over `P·C` and `P·ln P`. Returns `(⟨P,C⟩, reg_value,
    /// scale)`: `reg_value` is a positive term plus a negative one, so its
    /// error is measured against the terms' magnitudes, `scale`.
    fn reference_objective(r: &SinkhornResult, cost: &Matrix) -> (f64, f64, f64) {
        let plan = r.plan(cost);
        let (mut tc, mut ne) = (0.0, 0.0);
        for (&p, &c) in plan.as_slice().iter().zip(cost.as_slice()) {
            if p > 0.0 {
                tc += p * c;
                ne += p * p.ln();
            }
        }
        (tc, tc + r.lambda * ne, tc.abs() + (r.lambda * ne).abs())
    }

    /// A masked cross cost with every fifth row fully masked.
    fn masked_cost(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 5, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, 5, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, 5, |i, _| {
            if i % 5 == 3 || !rng.bernoulli(0.7) {
                0.0
            } else {
                1.0
            }
        });
        masked_sq_cost(&xbar, &mask, &x, &mask)
    }

    /// Probability vector over `n` entries with every `k`-th entry (from
    /// `offset`) at zero weight, so `log a = −∞` there.
    fn holey_marginal(n: usize, k: usize, offset: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..n)
            .map(|i| {
                if i % k == offset {
                    0.0
                } else {
                    1.0 + (i % 3) as f64
                }
            })
            .collect();
        let total: f64 = raw.iter().sum();
        raw.iter().map(|v| v / total).collect()
    }

    #[test]
    fn fused_objective_matches_the_materialized_plan_reference() {
        for n in [7usize, 128, 1024] {
            let cost = masked_cost(n, 40 + n as u64);
            let uniform = vec![1.0 / n as f64; n];
            let marginals = [
                (uniform.clone(), uniform),
                (holey_marginal(n, 7, 2), holey_marginal(n, 7, 5)),
            ];
            for (a, b) in &marginals {
                for precision in [Precision::F64, Precision::F32] {
                    let opts = SinkhornOptions::with_lambda(0.1 * cost.mean())
                        .max_iters(20)
                        .exec(ExecPolicy::threads(2))
                        .precision(precision);
                    let r = try_sinkhorn(&cost, a, b, &opts).unwrap();
                    let (tc, reg, scale) = reference_objective(&r, &cost);
                    let what = format!("n={n} {precision:?}");
                    assert!(
                        (r.transport_cost - tc).abs() <= 1e-12 * tc.abs(),
                        "{what}: transport cost {} vs {}",
                        r.transport_cost,
                        tc
                    );
                    assert!(
                        (r.reg_value - reg).abs() <= 1e-12 * scale,
                        "{what}: reg_value {} vs {}",
                        r.reg_value,
                        reg
                    );
                }
            }
        }
    }

    #[test]
    fn zero_weight_entries_carry_no_plan_mass() {
        let n = 128;
        let cost = masked_cost(n, 9);
        let (a, b) = (holey_marginal(n, 7, 2), holey_marginal(n, 7, 5));
        let r = try_sinkhorn(&cost, &a, &b, &SinkhornOptions::with_lambda(0.05)).unwrap();
        assert!(r.reg_value.is_finite() && r.transport_cost.is_finite());
        let plan = r.plan(&cost);
        for i in 0..n {
            for j in 0..n {
                if a[i] == 0.0 || b[j] == 0.0 {
                    assert_eq!(plan[(i, j)], 0.0, "({i}, {j})");
                }
            }
        }
    }
}

#[cfg(test)]
mod escalation_tests {
    use super::*;

    /// A cost landscape that a heavily iteration-capped plain solve cannot
    /// finish: two tight clusters and a tiny λ.
    fn hard_cost(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let ci = (i < n / 2) as u8;
            let cj = (j < n / 2) as u8;
            if ci == cj {
                0.001 * ((i + 2 * j) % 7) as f64
            } else {
                1.0 + 0.001 * ((i * j) % 5) as f64
            }
        })
    }

    /// Unstructured random cost: at small λ the plain solver needs far more
    /// iterations than the starved budget below allows.
    fn random_cost(n: usize, seed: u64) -> Matrix {
        let mut s = seed | 1;
        Matrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        })
    }

    #[test]
    fn escalation_recovers_a_non_converged_solve() {
        let c = random_cost(24, 0x12345);
        // deliberately starved plain solve
        let opts = SinkhornOptions {
            lambda: 1e-3,
            max_iters: 30,
            tol: 1e-9,
            ..Default::default()
        };
        let plain = sinkhorn_uniform(&c, &opts);
        assert!(
            !plain.converged,
            "test premise: plain solve must be starved"
        );
        let policy = EscalationPolicy {
            max_attempts: 3,
            base_stages: 4,
            iter_growth: 4,
        };
        let (r, stats) = try_sinkhorn_uniform_escalated(&c, &opts, &policy).unwrap();
        assert!(
            r.converged,
            "escalation did not recover convergence: {stats:?}"
        );
        assert!(stats.escalations >= 1, "recovery must have used a retry");
        assert_eq!(stats.unconverged, 0);
    }

    #[test]
    fn escalation_counts_attempts_on_starved_budget() {
        let c = hard_cost(20);
        // even the retries are starved (no budget growth) → every attempt is
        // consumed
        let opts = SinkhornOptions {
            lambda: 0.005,
            max_iters: 3,
            tol: 1e-12,
            ..Default::default()
        };
        let policy = EscalationPolicy {
            max_attempts: 2,
            base_stages: 4,
            iter_growth: 1,
        };
        let (r, stats) = try_sinkhorn_uniform_escalated(&c, &opts, &policy).unwrap();
        assert_eq!(stats.escalations, 2);
        assert_eq!(stats.unconverged, 1);
        // output is still finite — degraded, not poisoned
        assert!(r.plan(&c).as_slice().iter().all(|p| p.is_finite()));
        assert!(r.reg_value.is_finite());
    }

    #[test]
    fn converged_solve_never_escalates() {
        let c = hard_cost(10);
        let opts = SinkhornOptions {
            lambda: 0.5,
            max_iters: 5000,
            tol: 1e-9,
            ..Default::default()
        };
        let (r, stats) =
            try_sinkhorn_uniform_escalated(&c, &opts, &EscalationPolicy::default()).unwrap();
        assert!(r.converged);
        assert!(
            stats.is_clean(),
            "recovery events on a clean solve: {stats:?}"
        );
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.converged, 1);
        assert_eq!(stats.iterations, r.iterations, "single-attempt solve");
        assert!(stats.iterations > 0);
    }

    #[test]
    fn solve_stats_absorb_adds_all_fields() {
        let mut a = SolveStats {
            solves: 1,
            iterations: 10,
            converged: 1,
            escalations: 0,
            unconverged: 0,
            warm_starts: 1,
            iters_saved: 5,
            ..SolveStats::default()
        };
        a.note_solve_iters(10);
        let mut b = SolveStats {
            solves: 2,
            iterations: 30,
            converged: 1,
            escalations: 3,
            unconverged: 1,
            warm_starts: 2,
            iters_saved: 7,
            ..SolveStats::default()
        };
        b.note_solve_iters(12);
        b.note_solve_iters(18);
        a.absorb(b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.iterations, 40);
        assert_eq!(a.converged, 2);
        assert_eq!(a.escalations, 3);
        assert_eq!(a.unconverged, 1);
        assert_eq!(a.warm_starts, 3);
        assert_eq!(a.iters_saved, 12);
        assert_eq!(a.tracked_iters(), &[10, 12, 18]);
        assert!(!a.is_clean());
    }

    #[test]
    fn solve_stats_per_solve_scratch_saturates() {
        let mut s = SolveStats::default();
        for i in 0..(TRACKED_SOLVE_CAP + 3) {
            s.note_solve_iters(i + 1);
        }
        assert_eq!(s.tracked_solves, TRACKED_SOLVE_CAP);
        assert_eq!(s.tracked_iters().len(), TRACKED_SOLVE_CAP);
        assert_eq!(s.tracked_iters()[0], 1);
    }

    #[test]
    fn escalated_solves_record_per_solve_iterations() {
        let c = hard_cost(8);
        let opts = SinkhornOptions {
            lambda: 0.2,
            max_iters: 10_000,
            tol: 1e-9,
            ..Default::default()
        };
        let (r, stats) =
            try_sinkhorn_uniform_escalated(&c, &opts, &EscalationPolicy::default()).unwrap();
        assert_eq!(stats.tracked_iters(), &[r.iterations as u32]);
        assert_eq!(stats.iterations, r.iterations);
    }

    #[test]
    fn warm_start_accounting_is_clean() {
        // warm_starts/iters_saved are optimizations, not recovery events
        let s = SolveStats {
            solves: 4,
            iterations: 40,
            converged: 4,
            warm_starts: 3,
            iters_saved: 25,
            ..SolveStats::default()
        };
        assert!(s.is_clean());
    }

    #[test]
    fn none_policy_is_plain_sinkhorn() {
        let c = hard_cost(12);
        let opts = SinkhornOptions {
            lambda: 0.05,
            max_iters: 30,
            tol: 1e-12,
            ..Default::default()
        };
        let plain = sinkhorn_uniform(&c, &opts);
        let (r, stats) =
            try_sinkhorn_uniform_escalated(&c, &opts, &EscalationPolicy::none()).unwrap();
        assert_eq!(r.reg_value, plain.reg_value);
        assert_eq!(stats.escalations, 0);
    }

    #[test]
    fn try_warm_rejects_mismatched_potentials_without_panicking() {
        let c = hard_cost(6);
        let a = vec![1.0 / 6.0; 6];
        let opts = SinkhornOptions::with_lambda(0.5);
        // stale cache entry from a differently-sized batch
        let err = try_sinkhorn_warm(&c, &a, &a, vec![0.0; 4], vec![0.0; 6], &opts).unwrap_err();
        assert!(matches!(
            err,
            SinkhornError::DimensionMismatch {
                what: "f potential",
                got: 4,
                expected: 6,
            }
        ));
        let err = try_sinkhorn_warm(&c, &a, &a, vec![0.0; 6], vec![0.0; 9], &opts).unwrap_err();
        assert!(matches!(
            err,
            SinkhornError::DimensionMismatch {
                what: "g potential",
                ..
            }
        ));
    }

    #[test]
    fn try_warm_rejects_non_finite_potentials() {
        let c = hard_cost(4);
        let a = vec![0.25; 4];
        let opts = SinkhornOptions::with_lambda(0.5);
        let mut f0 = vec![0.0; 4];
        f0[2] = f64::NAN;
        let err = try_sinkhorn_warm(&c, &a, &a, f0, vec![0.0; 4], &opts).unwrap_err();
        assert!(matches!(err, SinkhornError::BadMarginal { .. }));
    }

    #[test]
    fn warm_escalated_matches_cold_plan_and_records_warm_start() {
        let c = hard_cost(10);
        let opts = SinkhornOptions {
            lambda: 0.1,
            max_iters: 10_000,
            tol: 1e-9,
            ..Default::default()
        };
        let policy = EscalationPolicy::default();
        let (cold, cold_stats) = try_sinkhorn_uniform_escalated(&c, &opts, &policy).unwrap();
        assert_eq!(cold_stats.warm_starts, 0);
        let (warm, warm_stats) =
            try_sinkhorn_uniform_warm_escalated(&c, cold.f.clone(), cold.g.clone(), &opts, &policy)
                .unwrap();
        assert_eq!(warm_stats.warm_starts, 1);
        assert!(warm.converged);
        // restarting from the fixed point must converge (much) faster …
        assert!(warm.iterations <= cold.iterations);
        // … to the same plan, up to the marginal tolerance
        let (warm_plan, cold_plan) = (warm.plan(&c), cold.plan(&c));
        for (p, q) in warm_plan.as_slice().iter().zip(cold_plan.as_slice()) {
            assert!((p - q).abs() < 1e-7, "{} vs {}", p, q);
        }
        assert!((warm.reg_value - cold.reg_value).abs() < 1e-7);
    }

    #[test]
    fn eps_scaling_uniform_reports_stats() {
        let c = hard_cost(8);
        let opts = SinkhornOptions {
            lambda: 0.05,
            max_iters: 5_000,
            tol: 1e-8,
            ..Default::default()
        };
        let (r, stats) = try_sinkhorn_uniform_eps_scaling(&c, &opts, 4).unwrap();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.iterations, r.iterations);
        assert_eq!(stats.converged, r.converged as usize);
        assert_eq!(stats.warm_starts, 0);
    }
}

#[cfg(test)]
mod eps_scaling_tests {
    use super::*;

    fn clustered_cost(n: usize) -> Matrix {
        // two clusters → hard for cold-start small-λ Sinkhorn
        Matrix::from_fn(n, n, |i, j| {
            let ci = (i < n / 2) as u8;
            let cj = (j < n / 2) as u8;
            if ci == cj {
                0.001 * ((i + 2 * j) % 7) as f64
            } else {
                1.0 + 0.001 * ((i * j) % 5) as f64
            }
        })
    }

    #[test]
    fn eps_scaling_matches_cold_start_value() {
        let c = clustered_cost(20);
        let opts = SinkhornOptions {
            lambda: 0.01,
            max_iters: 20_000,
            tol: 1e-10,
            ..Default::default()
        };
        let cold = sinkhorn_uniform(&c, &opts);
        let warm = sinkhorn_eps_scaling_uniform(&c, &opts, 5);
        assert!(warm.converged);
        assert!(
            (warm.reg_value - cold.reg_value).abs() < 1e-6,
            "{} vs {}",
            warm.reg_value,
            cold.reg_value
        );
        // plans agree
        let (warm_plan, cold_plan) = (warm.plan(&c), cold.plan(&c));
        for (p, q) in warm_plan.as_slice().iter().zip(cold_plan.as_slice()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn eps_scaling_final_stage_never_needs_more_iterations() {
        let c = clustered_cost(30);
        let opts = SinkhornOptions {
            lambda: 0.005,
            max_iters: 50_000,
            tol: 1e-9,
            ..Default::default()
        };
        let cold = sinkhorn_uniform(&c, &opts);
        let warm = sinkhorn_eps_scaling_uniform(&c, &opts, 6);
        assert!(warm.converged && cold.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} final-stage iterations",
            warm.iterations,
            cold.iterations
        );
        assert!((warm.reg_value - cold.reg_value).abs() < 1e-6);
    }

    #[test]
    fn warm_start_from_exact_potentials_is_instant() {
        let c = clustered_cost(12);
        let opts = SinkhornOptions {
            lambda: 0.05,
            max_iters: 10_000,
            tol: 1e-10,
            ..Default::default()
        };
        let r1 = sinkhorn_uniform(&c, &opts);
        let a = vec![1.0 / 12.0; 12];
        let r2 = sinkhorn_warm(&c, &a, &a, r1.f.clone(), r1.g.clone(), &opts);
        assert!(r2.converged);
        assert!(
            r2.iterations <= 2,
            "took {} iterations from exact start",
            r2.iterations
        );
    }

    #[test]
    fn single_stage_equals_plain_sinkhorn() {
        let c = clustered_cost(10);
        let opts = SinkhornOptions {
            lambda: 0.5,
            max_iters: 2000,
            tol: 1e-10,
            ..Default::default()
        };
        let a = sinkhorn_uniform(&c, &opts);
        let b = sinkhorn_eps_scaling_uniform(&c, &opts, 1);
        assert!((a.reg_value - b.reg_value).abs() < 1e-9);
    }
}
