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
//! paper uses on `[0,1]`-normalized data *and* tiny λ where the kernel
//! `exp(−C/λ)` would underflow in the primal domain.

use scis_tensor::exec::for_row_spans;
use scis_tensor::fastmath::fast_exp;
use scis_tensor::ops::{to_f32_vec, Scalar};
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
    /// Compute precision of the per-iteration sweeps. Both precisions run
    /// one loop and differ only in the cost cells it sweeps: the default
    /// [`Precision::F64`] stores them as `f64` and uses libm `exp`;
    /// [`Precision::F32`] stores them as `f32` and uses the polynomial
    /// [`fast_exp`]. Potentials and accumulators stay `f64`, the objective
    /// (and any on-demand plan) is always evaluated from the full-precision
    /// cost with libm `exp`, and results are bit-identical across thread
    /// counts within a mode. `F32` is opt-in via `AccelConfig::f32_compute`
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
/// [`solve`] surfaces them as values so callers embedded in long training
/// runs can degrade gracefully instead of aborting the process.
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

/// A cost cell of the sweep loop: how the sweeps store the cost and which
/// `exp` they evaluate. [`Precision::F64`] sweeps `f64` cells with libm
/// `exp`; [`Precision::F32`] sweeps `f32` cells (half the bandwidth) with
/// the polynomial [`fast_exp`]. The loop itself, its `f64` potentials and
/// accumulators and its convergence check are the same for both.
trait Cell: Scalar {
    /// `e^x` as this mode's sweeps evaluate it.
    fn exp(x: f64) -> f64;
}

impl Cell for f64 {
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        x.exp()
    }
}

impl Cell for f32 {
    #[inline(always)]
    fn exp(x: f64) -> f64 {
        fast_exp(x)
    }
}

/// Numerically stable `log Σ exp(t_j)` over a term buffer, with `C`'s
/// `exp`; the buffer is consumed.
///
/// The max fold runs over four independent lanes, which breaks the
/// one-`f64::max`-latency-per-element chain. `f64::max` ignores NaN
/// whatever the order, so the lanes agree on the largest value and can
/// differ only in which signed zero represents a zero maximum, which never
/// reaches the result: `t − (±0)` is the same for every `t` up to the sign
/// of a zero, and `±0 + ln(sum)` is the same as well, since `sum ≥ 1`.
/// The exponentials then run as their own in-place pass, so they pipeline
/// (and `fast_exp` vectorizes) across the row instead of serializing on the
/// sum, and the sum uses the same four-accumulator shape as `ops::dot`.
#[inline]
fn lse<C: Cell>(terms: &mut [f64]) -> f64 {
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
    for t in terms.iter_mut() {
        *t = C::exp(*t - max);
    }
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

/// One half-sweep: `out_i ← −λ LSE_j [pre_j − C_ij/λ]` for every row `i` of
/// `cells` (row-major, `out.len()` rows of `pre.len()` cells).
///
/// The affine part of each logit, `pre`, is hoisted out of the cell loop,
/// and `C/λ` is one multiply by `1/λ`. Rows are split across `threads`
/// workers with one term buffer per span, and each row is reduced by one
/// worker in a fixed order, so the sweep gives the same bits at any thread
/// count.
fn lse_sweep<C: Cell>(out: &mut [f64], pre: &[f64], cells: &[C], lam: f64, threads: usize) {
    let (w, inv_lam) = (pre.len(), 1.0 / lam);
    for_row_spans(out, 1, threads, |r0, span| {
        let mut terms = vec![0.0; w];
        for (o, row) in span.iter_mut().zip(cells[r0 * w..].chunks_exact(w)) {
            for ((t, &p), &c) in terms.iter_mut().zip(pre).zip(row) {
                *t = p - c.w() * inv_lam;
            }
            *o = -lam * lse::<C>(&mut terms);
        }
    });
}

/// Where a [`solve`] starts its dual potentials `(f, g)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Start {
    /// From zeros.
    Cold,
    /// From the given potentials (lengths `n` and `m`, all finite), e.g. the
    /// previous epoch's duals from [`crate::DualCache`]. A warm start moves
    /// only the start, never the fixed point.
    Warm(Vec<f64>, Vec<f64>),
    /// ε-scaling from zeros over this many stages (at least one): a
    /// geometric sequence of regularization levels `λ_0 > λ_1 > … > λ`, each
    /// stage warm-started from the last. For small target λ this converges in
    /// a small fraction of the sweeps a cold start needs — the classic trick
    /// from Schmitzer (2019); only the final stage's fixed point and sweeps
    /// are reported.
    Annealed(usize),
}

/// Log-domain Sinkhorn for the entropic problem of Definition 3 over `cost`
/// (`n x m`) — the one solver behind DIM, SSE, RRSI and the critic.
///
/// * `marginals` — `(a, b)`, or `None` for uniform `1/n` and `1/m` (the
///   empirical-measure setting `Γ_{n,n}` of Definition 2);
/// * `start` — see [`Start`];
/// * `policy` — while a cold or warm first attempt misses the marginal
///   tolerance, re-solve annealed with a growing stage count and sweep
///   budget ([`EscalationPolicy`]). An annealed first attempt is final, and
///   [`EscalationPolicy::none`] gives a plain solve.
///
/// Inputs are checked before any sweep, in this order: marginal lengths, λ,
/// the marginals, the cost's finiteness, then a warm start's potential
/// lengths and finiteness. The first defect is returned as a
/// [`SinkhornError`]. The [`SolveStats`] count one solve.
///
/// ```
/// use scis_ot::{solve, EscalationPolicy, SinkhornOptions, Start};
/// use scis_tensor::Matrix;
///
/// let cost = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
/// let opts = SinkhornOptions::default().lambda(0.05).max_iters(1000);
/// let (r, stats) = solve(&cost, None, Start::Cold, &opts, &EscalationPolicy::none()).unwrap();
/// assert!(r.converged && stats.is_clean());
/// // identity matching is free -> transport cost near zero
/// assert!(r.transport_cost < 1e-3);
/// ```
///
/// # Panics
/// Panics on `Start::Annealed(0)`.
pub fn solve(
    cost: &Matrix,
    marginals: Option<(&[f64], &[f64])>,
    start: Start,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    let (n, m) = cost.shape();
    let uniform;
    let (a, b) = match marginals {
        Some(ab) => ab,
        None => {
            uniform = (vec![1.0 / n as f64; n], vec![1.0 / m as f64; m]);
            (uniform.0.as_slice(), uniform.1.as_slice())
        }
    };
    validate_inputs(cost, a, b, opts)?;
    let mut stats = SolveStats {
        solves: 1,
        ..SolveStats::default()
    };
    let mut attempts = policy.max_attempts;
    let mut result = match start {
        Start::Cold => sinkhorn_impl(cost, a, b, vec![0.0; n], vec![0.0; m], opts),
        Start::Warm(f0, g0) => {
            validate_potentials(&f0, &g0, n, m)?;
            stats.warm_starts = 1;
            sinkhorn_impl(cost, a, b, f0, g0, opts)
        }
        Start::Annealed(stages) => {
            attempts = 0;
            anneal(cost, a, b, opts, stages)
        }
    };
    stats.iterations = result.iterations;
    let mut stages = policy.base_stages.max(2);
    let growth = policy.iter_growth.max(1);
    let mut budget = opts.max_iters;
    for _ in 0..attempts {
        if result.converged {
            break;
        }
        stats.escalations += 1;
        budget = budget.saturating_mul(growth);
        let esc_opts = SinkhornOptions {
            max_iters: budget,
            ..opts.clone()
        };
        result = anneal(cost, a, b, &esc_opts, stages);
        stats.iterations += result.iterations;
        stages *= 2;
    }
    if result.converged {
        stats.converged = 1;
    } else {
        stats.unconverged = 1;
    }
    stats.note_solve_iters(stats.iterations);
    Ok((result, stats))
}

/// A plain cold solve with uniform marginals, without the accounting.
pub fn try_sinkhorn_uniform(
    cost: &Matrix,
    opts: &SinkhornOptions,
) -> Result<SinkhornResult, SinkhornError> {
    solve(cost, None, Start::Cold, opts, &EscalationPolicy::none()).map(|(r, _)| r)
}

/// Checks warm-start potentials against the cost shape, so a stale dual
/// cache entry degrades to a cold solve instead of a panic.
fn validate_potentials(f0: &[f64], g0: &[f64], n: usize, m: usize) -> Result<(), SinkhornError> {
    if f0.len() != n {
        return Err(SinkhornError::DimensionMismatch {
            what: "f potential",
            got: f0.len(),
            expected: n,
        });
    }
    if g0.len() != m {
        return Err(SinkhornError::DimensionMismatch {
            what: "g potential",
            got: g0.len(),
            expected: m,
        });
    }
    if f0.iter().chain(g0).any(|v| !v.is_finite()) {
        return Err(SinkhornError::BadMarginal {
            side: "warm-start potentials",
            reason: "non-finite entry",
        });
    }
    Ok(())
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

    // Sweeps partition independent rows (resp. columns) across scoped
    // workers; each entry is produced by exactly one worker with the same
    // arithmetic as the serial loop, so solves are bit-identical under any
    // thread count. Small problems stay serial (see PAR_MIN_CELLS).
    let threads = if n * m < PAR_MIN_CELLS {
        1
    } else {
        opts.exec.resolve()
    };
    let mut result = SinkhornResult {
        f: f_init,
        g: g_init,
        transport_cost: 0.0,
        reg_value: 0.0,
        iterations: 0,
        converged: false,
        log_a,
        log_b,
        lambda: lam,
    };
    // A zero budget runs no sweep, so warm-started potentials pass through
    // untouched. Otherwise the mode picks the cells the loop sweeps: the
    // cost and a transposed copy (so the g-sweep walks contiguous rows too),
    // in `f64` or narrowed to `f32` straight from the `f64` cost. The
    // objective below is always reduced from the full-precision cost.
    if opts.max_iters > 0 {
        match opts.precision {
            Precision::F64 => sweep_loop(
                &mut result,
                cost.as_slice(),
                &cost.transpose_map(|v| v),
                a,
                opts,
                threads,
            ),
            Precision::F32 => sweep_loop(
                &mut result,
                &to_f32_vec(cost),
                &cost.transpose_map(|v| v as f32),
                a,
                opts,
                threads,
            ),
        }
    }
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

/// The Sinkhorn iteration loop over cost cells `C` (`cost` row-major
/// `n x m`, `cost_t` its transpose): alternating f- and g-sweeps from `r`'s
/// potentials, setting `r.iterations` and `r.converged`.
///
/// There is no separate marginal-violation sweep. Column sums are exact
/// after a g-update, and the next f-sweep against those duals `g` yields
/// the iterate's row sums for free: its LSE value *is* `−f_i_new/λ`, so
/// `Σ_j P_ij = exp(log a_i + (f_i_old − f_i_new)/λ)`, an O(n) pass. Each
/// f-sweep therefore checks the iterate the previous pass completed. When
/// the loop stops — converged, out of budget, or at the deadline — `r`
/// holds that iterate: a stopping f-sweep's values are discarded, so the
/// reported plan's column marginals are exact and `iterations` counts its
/// g-updates.
fn sweep_loop<C: Cell>(
    r: &mut SinkhornResult,
    cost: &[C],
    cost_t: &[C],
    a: &[f64],
    opts: &SinkhornOptions,
    threads: usize,
) {
    let (lam, inv_lam) = (r.lambda, 1.0 / r.lambda);
    let (mut f_pre, mut g_pre) = (vec![0.0; r.f.len()], vec![0.0; r.g.len()]);
    let mut f_prev = vec![0.0; r.f.len()];
    let mut it = 0;
    // Cooperative cancellation: stop at a sweep boundary, leaving the
    // iterate of the completed passes (reported unconverged).
    while !opts.deadline.expired() {
        // f_i ← −λ LSE_j [ log b_j + g_j/λ − C_ij/λ ]
        for (p, (&lb, &gj)) in g_pre.iter_mut().zip(r.log_b.iter().zip(&r.g)) {
            *p = lb + gj * inv_lam;
        }
        std::mem::swap(&mut r.f, &mut f_prev);
        lse_sweep(&mut r.f, &g_pre, cost, lam, threads);
        // the fused check of the iterate (f_prev, g)
        r.converged = it > 0 && {
            let mut violation = 0.0;
            for i in 0..a.len() {
                violation += (C::exp(r.log_a[i] + (f_prev[i] - r.f[i]) * inv_lam) - a[i]).abs();
            }
            violation < opts.tol
        };
        if r.converged || it == opts.max_iters {
            std::mem::swap(&mut r.f, &mut f_prev);
            break;
        }
        // g_j ← −λ LSE_i [ log a_i + f_i/λ − C_ij/λ ]
        for (p, (&la, &fi)) in f_pre.iter_mut().zip(r.log_a.iter().zip(&r.f)) {
            *p = la + fi * inv_lam;
        }
        lse_sweep(&mut r.g, &f_pre, cost_t, lam, threads);
        it += 1;
    }
    r.iterations = it;
}

/// The [`Start::Annealed`] ladder: a solve per stage, each warm-started from
/// the last, reporting the final stage.
fn anneal(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
    n_stages: usize,
) -> SinkhornResult {
    assert!(
        n_stages >= 1,
        "sinkhorn: annealing needs at least one stage"
    );
    // start near the cost scale (plans ~ product measure, trivially solved)
    let lambda_start = cost.max().max(opts.lambda);
    let ratio = if n_stages > 1 {
        (opts.lambda / lambda_start).powf(1.0 / (n_stages - 1) as f64)
    } else {
        1.0
    };
    let (mut f, mut g) = (vec![0.0; a.len()], vec![0.0; b.len()]);
    let mut lambda = lambda_start;
    for _ in 1..n_stages {
        // intermediate stages only need rough potentials
        let stage_opts = SinkhornOptions {
            lambda,
            max_iters: opts.max_iters / 4 + 1,
            tol: opts.tol * 100.0,
            ..opts.clone()
        };
        let r = sinkhorn_impl(cost, a, b, f, g, &stage_opts);
        (f, g) = (r.f, r.g);
        lambda *= ratio;
    }
    sinkhorn_impl(cost, a, b, f, g, opts)
}

/// Retry policy when a plain solve fails to reach the marginal tolerance:
/// each escalation attempt re-solves with [`Start::Annealed`], doubling
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

/// Per-solve accounting of [`solve`], merged upward into the pipeline's
/// anomaly record and telemetry counters.
///
/// `solves`, `iterations` and `converged` track *all* tracked solves (the
/// value-flow channel of the telemetry layer); `escalations` and
/// `unconverged` keep their original meaning as recovery events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Solves attempted.
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

/// A plain cold solve with uniform marginals that panics on bad input — the
/// unit tests' shorthand.
#[cfg(test)]
pub(crate) fn solve_uniform(cost: &Matrix, opts: &SinkhornOptions) -> SinkhornResult {
    solve(cost, None, Start::Cold, opts, &EscalationPolicy::none())
        .unwrap()
        .0
}

/// A plain cold solve over the marginals `(a, b)` — the unit tests'
/// shorthand.
#[cfg(test)]
pub(crate) fn solve_ab(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    opts: &SinkhornOptions,
) -> Result<SinkhornResult, SinkhornError> {
    solve(
        cost,
        Some((a, b)),
        Start::Cold,
        opts,
        &EscalationPolicy::none(),
    )
    .map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_cost() -> Matrix {
        Matrix::from_rows(&[&[0.0, 1.0, 4.0], &[1.0, 0.0, 1.0], &[4.0, 1.0, 0.0]])
    }

    #[test]
    fn lse_matches_the_sequential_fold_in_both_cell_types() {
        // the historical single-chain fold with libm `exp`, kept as the
        // reference
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
        // the kernel's `exp` pass and four-accumulator sum round differently
        // from the reference's chain, and `fast_exp` is within ~1e-13
        fn check(got: f64, want: f64, rel: f64, what: &str, terms: &[f64]) {
            if want.is_nan() {
                assert!(got.is_nan(), "{what}: {got} for a NaN row {terms:?}");
            } else if want.is_infinite() {
                assert_eq!(got, want, "{what}: {terms:?}");
            } else {
                assert!(
                    (got - want).abs() <= rel * want.abs(),
                    "{what}: {got} vs {want} for {terms:?}"
                );
            }
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
        let (mut nan_rows, mut neg_inf_rows) = (0, 0);
        for k in 0..20_000 {
            let terms: Vec<f64> = (0..k % 7)
                .map(|_| pool[rng.gen_range(pool.len())])
                .collect();
            let want = sequential(&terms);
            nan_rows += want.is_nan() as usize;
            neg_inf_rows += (want == f64::NEG_INFINITY) as usize;
            check(lse::<f64>(&mut terms.clone()), want, 1e-15, "f64", &terms);
            check(lse::<f32>(&mut terms.clone()), want, 1e-12, "f32", &terms);
        }
        assert!(nan_rows > 0 && neg_inf_rows > 0);
    }

    #[test]
    fn the_returned_iterate_is_the_one_the_fused_check_measured() {
        let mut rng = scis_tensor::Rng64::seed_from_u64(19);
        let mut outcomes = [0usize; 2];
        for n in [7usize, 128, 300] {
            let cost = Matrix::from_fn(n, n, |_, _| rng.uniform());
            for precision in [Precision::F64, Precision::F32] {
                // the explicit O(n·m) row check runs on the cells the sweeps
                // saw; the column marginals are held against the full cost,
                // so f32 misses them by its cost rounding
                let (cells, col_tol) = match precision {
                    Precision::F64 => (cost.clone(), 1e-12),
                    Precision::F32 => (cost.map(|v| v as f32 as f64), 1e-5),
                };
                let row_violation = |r: &SinkhornResult| -> f64 {
                    let rows = r.plan(&cells).row_sums();
                    rows.iter().map(|s| (s - 1.0 / n as f64).abs()).sum()
                };
                // the first budget is ample, the second runs out
                for (lambda, budget) in [(0.3, 500), (0.005, 5)] {
                    let opts = SinkhornOptions::with_lambda(lambda)
                        .max_iters(budget)
                        .exec(ExecPolicy::Serial)
                        .precision(precision);
                    let what = format!("n={n} {precision:?} λ={lambda}");
                    let r = solve_uniform(&cost, &opts);
                    outcomes[r.converged as usize] += 1;
                    for c in r.plan(&cost).col_sums() {
                        assert!((c * n as f64 - 1.0).abs() <= col_tol, "{what}: column {c}");
                    }
                    assert_eq!(row_violation(&r) < opts.tol, r.converged, "{what}");
                    if !r.converged {
                        assert_eq!(r.iterations, budget, "{what}");
                        continue;
                    }
                    // one g-update fewer ends unconverged: `iterations` is
                    // the first iterate to pass the check
                    let short = solve_uniform(&cost, &opts.clone().max_iters(r.iterations - 1));
                    assert!(!short.converged, "{what}");
                    assert_eq!(short.iterations, r.iterations - 1, "{what}");
                    assert!(row_violation(&short) >= opts.tol, "{what}");
                }
            }
        }
        assert_eq!(outcomes, [6, 6], "[unconverged, converged] solves");
    }

    #[test]
    fn plan_satisfies_marginals() {
        let c = toy_cost();
        let r = solve_uniform(
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
        let r = solve_uniform(
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
        let r = solve_uniform(&c, &SinkhornOptions::with_lambda(1e4));
        for p in r.plan(&c).as_slice() {
            assert!((p - 1.0 / 9.0).abs() < 1e-3, "plan entry {}", p);
        }
    }

    #[test]
    fn handles_nonuniform_marginals() {
        let c = Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]);
        let a = [0.7, 0.3];
        let b = [0.4, 0.6];
        let r = solve_ab(&c, &a, &b, &SinkhornOptions::with_lambda(0.05)).unwrap();
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
        let r = solve_uniform(&c, &SinkhornOptions::with_lambda(0.2));
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
        let r = solve_uniform(&c, &SinkhornOptions::default());
        assert!(r.converged);
        assert!(r.transport_cost.is_finite());
        assert!(r.reg_value.is_finite());
    }

    #[test]
    fn stable_under_tiny_lambda_large_costs() {
        // would underflow e^{-C/λ} in the primal domain: C up to 1e4, λ=1e-3
        let c = Matrix::from_fn(5, 5, |i, j| (i as f64 - j as f64).powi(2) * 400.0);
        let r = solve_uniform(
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
        let r = solve_uniform(&c, &SinkhornOptions::with_lambda(0.5));
        assert!(r.transport_cost.abs() < 1e-12);
    }

    #[test]
    fn reg_value_includes_entropy_term() {
        let c = Matrix::zeros(2, 2);
        let r = solve_uniform(&c, &SinkhornOptions::with_lambda(1.0));
        // zero cost → plan is product measure 1/4 each; Σ p log p = −log 4
        assert!(
            (r.reg_value - (-(4.0f64).ln())).abs() < 1e-9,
            "{}",
            r.reg_value
        );
    }

    #[test]
    fn try_sinkhorn_reports_structured_errors() {
        let opts = SinkhornOptions::default();
        let half = [0.5, 0.5];
        assert!(matches!(
            solve_ab(&Matrix::zeros(2, 2), &[1.0], &half, &opts),
            Err(SinkhornError::DimensionMismatch {
                what: "first marginal",
                ..
            })
        ));
        assert!(matches!(
            solve_ab(&Matrix::zeros(2, 2), &half, &[1.0, 2.0, 3.0], &opts),
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
            solve_ab(&Matrix::zeros(2, 2), &half, &half, &bad_lambda),
            Err(SinkhornError::BadLambda { .. })
        ));
        let nan_lambda = SinkhornOptions {
            lambda: f64::NAN,
            ..opts.clone()
        };
        assert!(matches!(
            solve_ab(&Matrix::zeros(2, 2), &half, &half, &nan_lambda),
            Err(SinkhornError::BadLambda { .. })
        ));
        assert!(matches!(
            solve_ab(&Matrix::zeros(2, 2), &[0.9, 0.9], &half, &opts),
            Err(SinkhornError::BadMarginal { side: "a", .. })
        ));
        assert!(matches!(
            solve_ab(&Matrix::zeros(2, 2), &half, &[-0.5, 1.5], &opts),
            Err(SinkhornError::BadMarginal { side: "b", .. })
        ));
        let mut c = Matrix::zeros(2, 2);
        c[(1, 0)] = f64::NAN;
        assert_eq!(
            solve_ab(&c, &half, &half, &opts).unwrap_err(),
            SinkhornError::NonFiniteCost { row: 1, col: 0 }
        );
    }

    #[test]
    fn zero_weight_marginal_entries_are_supported() {
        // a degenerate marginal with zero-mass entries must not yield NaN
        let c = toy_cost();
        let a = [0.5, 0.5, 0.0];
        let b = [0.0, 0.5, 0.5];
        let r = solve_ab(&c, &a, &b, &SinkhornOptions::with_lambda(0.1)).unwrap();
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
                    let r = solve_ab(&cost, a, b, &opts).unwrap();
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
        let r = solve_ab(&cost, &a, &b, &SinkhornOptions::with_lambda(0.05)).unwrap();
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
        let plain = solve_uniform(&c, &opts);
        assert!(
            !plain.converged,
            "test premise: plain solve must be starved"
        );
        let policy = EscalationPolicy {
            max_attempts: 3,
            base_stages: 4,
            iter_growth: 4,
        };
        let (r, stats) = solve(&c, None, Start::Cold, &opts, &policy).unwrap();
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
        let (r, stats) = solve(&c, None, Start::Cold, &opts, &policy).unwrap();
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
        let (r, stats) = solve(&c, None, Start::Cold, &opts, &EscalationPolicy::default()).unwrap();
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
        let (r, stats) = solve(&c, None, Start::Cold, &opts, &EscalationPolicy::default()).unwrap();
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
        let plain = solve_uniform(&c, &opts);
        let (r, stats) = solve(&c, None, Start::Cold, &opts, &EscalationPolicy::none()).unwrap();
        assert_eq!(r.reg_value, plain.reg_value);
        assert_eq!(stats.escalations, 0);
    }

    #[test]
    fn try_warm_rejects_mismatched_potentials_without_panicking() {
        let c = hard_cost(6);
        let a = [1.0 / 6.0; 6];
        let opts = SinkhornOptions::with_lambda(0.5);
        let (ab, none) = (Some((&a[..], &a[..])), EscalationPolicy::none());
        // stale cache entry from a differently-sized batch
        let err = solve(
            &c,
            ab,
            Start::Warm(vec![0.0; 4], vec![0.0; 6]),
            &opts,
            &none,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SinkhornError::DimensionMismatch {
                what: "f potential",
                got: 4,
                expected: 6,
            }
        ));
        let err = solve(
            &c,
            ab,
            Start::Warm(vec![0.0; 6], vec![0.0; 9]),
            &opts,
            &none,
        )
        .unwrap_err();
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
        let a = [0.25; 4];
        let opts = SinkhornOptions::with_lambda(0.5);
        let mut f0 = vec![0.0; 4];
        f0[2] = f64::NAN;
        let err = solve(
            &c,
            Some((&a[..], &a[..])),
            Start::Warm(f0, vec![0.0; 4]),
            &opts,
            &EscalationPolicy::none(),
        )
        .unwrap_err();
        assert!(matches!(err, SinkhornError::BadMarginal { .. }));
    }

    #[test]
    fn warm_start_from_the_previous_problem_lands_on_the_cold_plan() {
        use crate::cost::masked_sq_cost_with;
        use scis_tensor::Rng64;
        // consecutive DIM epochs on one full batch: the generator side moves
        // by about one optimizer step, the data side stays, and the next
        // solve starts from the previous epoch's duals
        let (n, d) = (60, 6);
        let mut rng = Rng64::seed_from_u64(12);
        let x = Matrix::from_fn(n, d, |_, j| {
            let t = rng.uniform();
            (0.6 * t + 0.2 * (j as f64 / d as f64) + rng.normal_with(0.0, 0.05)).clamp(0.0, 1.0)
        });
        let mut rng = Rng64::seed_from_u64(11);
        let mask = Matrix::from_fn(n, d, |_, _| if rng.bernoulli(0.75) { 1.0 } else { 0.0 });
        let xbar = x.map(|v| (v + 0.08).clamp(0.0, 1.0));
        let cost0 = masked_sq_cost_with(&xbar, &mask, &x, &mask, ExecPolicy::Serial);
        let opts = SinkhornOptions::with_lambda(0.1 * cost0.mean())
            .max_iters(5000)
            .tol(1e-8)
            .exec(ExecPolicy::Serial);
        let prev = solve_uniform(&cost0, &opts);
        let xbar1 = xbar.map(|v| (v - 0.002).clamp(0.0, 1.0));
        let cost1 = masked_sq_cost_with(&xbar1, &mask, &x, &mask, ExecPolicy::Serial);
        let cold = solve_uniform(&cost1, &opts);
        let start = Start::Warm(prev.f.clone(), prev.g.clone());
        let (warm, stats) = solve(&cost1, None, start, &opts, &EscalationPolicy::none()).unwrap();
        assert!(cold.converged && warm.converged);
        assert_eq!(stats.warm_starts, 1);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} sweeps",
            warm.iterations,
            cold.iterations
        );
        let (warm_plan, cold_plan) = (warm.plan(&cost1), cold.plan(&cost1));
        let diff = warm_plan
            .as_slice()
            .iter()
            .zip(cold_plan.as_slice())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-6, "plan max|Δ| {diff:e}");
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
        let (cold, cold_stats) = solve(&c, None, Start::Cold, &opts, &policy).unwrap();
        assert_eq!(cold_stats.warm_starts, 0);
        let (warm, warm_stats) = solve(
            &c,
            None,
            Start::Warm(cold.f.clone(), cold.g.clone()),
            &opts,
            &policy,
        )
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
        let (r, stats) = solve(
            &c,
            None,
            Start::Annealed(4),
            &opts,
            &EscalationPolicy::none(),
        )
        .unwrap();
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
        let cold = solve_uniform(&c, &opts);
        let warm = solve(
            &c,
            None,
            Start::Annealed(5),
            &opts,
            &EscalationPolicy::none(),
        )
        .unwrap()
        .0;
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
        let cold = solve_uniform(&c, &opts);
        let warm = solve(
            &c,
            None,
            Start::Annealed(6),
            &opts,
            &EscalationPolicy::none(),
        )
        .unwrap()
        .0;
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
        let r1 = solve_uniform(&c, &opts);
        let a = [1.0 / 12.0; 12];
        let r2 = solve(
            &c,
            Some((&a[..], &a[..])),
            Start::Warm(r1.f.clone(), r1.g.clone()),
            &opts,
            &EscalationPolicy::none(),
        )
        .unwrap()
        .0;
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
        let a = solve_uniform(&c, &opts);
        let b = solve(
            &c,
            None,
            Start::Annealed(1),
            &opts,
            &EscalationPolicy::none(),
        )
        .unwrap()
        .0;
        assert!((a.reg_value - b.reg_value).abs() < 1e-9);
    }
}
