//! Gradient of the MS divergence w.r.t. the reconstructed batch
//! (paper Proposition 1, extended to the debiased divergence).
//!
//! For the entropic OT value `OT_λ(ν̂, μ̂) = min_P ⟨P, C⟩ + λΣP log P`, the
//! envelope theorem gives the exact derivative w.r.t. anything entering the
//! cost matrix: `∂OT/∂x̄_i = Σ_j P*_ij ∂C_ij/∂x̄_i`, with the optimal plan
//! held fixed. With the masked squared cost this is the barycentric-map form
//! of Proposition 1:
//!
//! ```text
//! ∂OT/∂x̄_i = Σ_j P*_ij · 2 (m_i ⊙ x̄_i − m_j ⊙ x_j) ⊙ m_i
//!          = 2 m_i ⊙ (m_i ⊙ x̄_i · Σ_j P*_ij − Σ_j P*_ij (m_j ⊙ x_j))
//! ```
//!
//! The self term `OT_λ(ν̂, ν̂)` contributes twice (x̄ appears in both
//! marginals; plan and cost are symmetric). Gradients here are verified
//! against central finite differences of the actual Sinkhorn values.
//!
//! The second form needs only each row's mass `Σ_j P_ij` and barycentric sum
//! `Σ_j P_ij (m_j ⊙ x_j)`, so the `ms_loss_grad*` functions stream `P` row by
//! row from `(cost, f, g)` — rows in parallel, no `n x m` plan buffer.
//! [`cross_ot_grad`] and [`self_ot_grad`] keep the plan-based first form:
//! the critic path uses them, and tests hold the streamed gradient to them.

use crate::cache::{DualCache, SolveKind};
use crate::cost::{
    masked_self_cost_with, masked_sq_cost_decomposed_p, masked_sq_cost_with, MaskedRows,
};
use crate::sinkhorn::{
    sinkhorn_uniform, try_sinkhorn_uniform_eps_scaling, try_sinkhorn_uniform_escalated,
    try_sinkhorn_uniform_warm_escalated, EscalationPolicy, SinkhornError, SinkhornOptions,
    SinkhornResult, SolveStats, PAR_MIN_CELLS,
};
use scis_tensor::exec::for_row_spans;
use scis_tensor::{ExecPolicy, Matrix};

/// Gradient of the *cross* entropic OT value `OT_λ^m(x̄, x)` w.r.t. `x̄`,
/// from a materialized plan (serial; the reference form of Proposition 1).
pub fn cross_ot_grad(xbar: &Matrix, x: &Matrix, mask: &Matrix, plan: &Matrix) -> Matrix {
    let (n, d) = xbar.shape();
    assert_eq!(
        plan.shape(),
        (n, x.rows()),
        "cross_ot_grad: plan shape mismatch"
    );
    let mut grad = Matrix::zeros(n, d);
    for i in 0..n {
        let mi = mask.row(i);
        let xi = xbar.row(i);
        let grow = grad.row_mut(i);
        for (j, &p) in plan.row(i).iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let mj = mask.row(j);
            let xj = x.row(j);
            for k in 0..d {
                grow[k] += p * 2.0 * (mi[k] * xi[k] - mj[k] * xj[k]) * mi[k];
            }
        }
    }
    grad
}

/// Gradient of the *self* entropic OT value `OT_λ^m(x̄, x̄)` w.r.t. `x̄`
/// (both marginals depend on `x̄`, hence the factor 2).
pub fn self_ot_grad(xbar: &Matrix, mask: &Matrix, plan: &Matrix) -> Matrix {
    cross_ot_grad(xbar, xbar, mask, plan).scale(2.0)
}

/// One solved problem feeding [`streamed_grad`]: its cost, its solve, the
/// masked rows `m_j ⊙ x_j` of its second marginal, and the weight of its
/// Proposition-1 gradient in the total.
struct GradTerm<'a> {
    cost: &'a Matrix,
    solve: &'a SinkhornResult,
    targets: &'a Matrix,
    weight: f64,
}

/// `Σ_t weight_t · 2 m_i ⊙ (m_i ⊙ x̄_i · Σ_j P^t_ij − Σ_j P^t_ij (m_j ⊙ x_j))`
/// for every row `i` of `x̄`, streaming each plan row from its duals.
///
/// Rows are independent and each is computed by one worker with the same
/// arithmetic, so the result is bit-identical at any thread count.
fn streamed_grad(xbar: &Matrix, mask: &Matrix, terms: &[GradTerm<'_>], exec: ExecPolicy) -> Matrix {
    let (n, d) = xbar.shape();
    let mut grad = Matrix::zeros(n, d);
    if d == 0 || n == 0 {
        return grad;
    }
    let m = terms.iter().map(|t| t.cost.cols()).max().unwrap_or(0);
    let threads = if n * m < PAR_MIN_CELLS {
        1
    } else {
        exec.workers(n)
    };
    for_row_spans(grad.as_mut_slice(), d, threads, |r0, span| {
        let mut log_p = vec![0.0; m];
        let mut bary = vec![0.0; d];
        for (di, grow) in span.chunks_exact_mut(d).enumerate() {
            let i = r0 + di;
            let (mi, xi) = (mask.row(i), xbar.row(i));
            for t in terms {
                let crow = t.cost.row(i);
                let log_p = &mut log_p[..crow.len()];
                t.solve.log_plan_row(i, crow, log_p);
                let mut mass = 0.0;
                bary.fill(0.0);
                for (j, &lp) in log_p.iter().enumerate() {
                    let p = lp.exp();
                    if p == 0.0 {
                        continue;
                    }
                    mass += p;
                    for (b, &y) in bary.iter_mut().zip(t.targets.row(j)) {
                        *b += p * y;
                    }
                }
                for k in 0..d {
                    grow[k] += t.weight * 2.0 * mi[k] * (mi[k] * xi[k] * mass - bary[k]);
                }
            }
        }
    });
    grad
}

/// Proposition 1's gradient of `L_s = (2·OT(x̄, x) − OT(x̄, x̄) − OT(x, x)) / (2n)`
/// w.r.t. `x̄` from the cross and generator-self solves (the data-self term
/// does not depend on `x̄`).
#[allow(clippy::too_many_arguments)]
fn ms_grad(
    xbar: &Matrix,
    x: &Matrix,
    mask: &Matrix,
    cross_cost: &Matrix,
    cross: &SinkhornResult,
    self_cost: &Matrix,
    self_a: &SinkhornResult,
    exec: ExecPolicy,
) -> Matrix {
    let inv_2n = 1.0 / (2.0 * x.rows().max(1) as f64);
    let (x_m, xbar_m) = (x.hadamard(mask), xbar.hadamard(mask));
    let terms = [
        GradTerm {
            cost: cross_cost,
            solve: cross,
            targets: &x_m,
            weight: 2.0 * inv_2n,
        },
        GradTerm {
            cost: self_cost,
            solve: self_a,
            targets: &xbar_m,
            weight: -2.0 * inv_2n,
        },
    ];
    streamed_grad(xbar, mask, &terms, exec)
}

/// Computes the MS-divergence imputation loss `L_s = S_m / (2n)` and its
/// gradient w.r.t. the reconstructed batch `xbar`, in one pass.
///
/// Runs three Sinkhorn solves (cross, self-x̄, self-x; the self-x solve only
/// feeds the value, not the gradient).
pub fn ms_loss_grad(
    xbar: &Matrix,
    x: &Matrix,
    mask: &Matrix,
    opts: &SinkhornOptions,
) -> (f64, Matrix) {
    assert_eq!(xbar.shape(), x.shape(), "ms_loss_grad: data shape mismatch");
    assert_eq!(x.shape(), mask.shape(), "ms_loss_grad: mask shape mismatch");
    let n = x.rows().max(1) as f64;

    let cross_cost = masked_sq_cost_with(xbar, mask, x, mask, opts.exec);
    let self_a_cost = masked_self_cost_with(xbar, mask, opts.exec);
    let self_b_cost = masked_self_cost_with(x, mask, opts.exec);
    let cross = sinkhorn_uniform(&cross_cost, opts);
    let self_a = sinkhorn_uniform(&self_a_cost, opts);
    let self_b = sinkhorn_uniform(&self_b_cost, opts);

    let value = 2.0 * cross.reg_value - self_a.reg_value - self_b.reg_value;
    let loss = value / (2.0 * n);
    let grad = ms_grad(
        xbar,
        x,
        mask,
        &cross_cost,
        &cross,
        &self_a_cost,
        &self_a,
        opts.exec,
    );
    (loss, grad)
}

/// Fault-tolerant variant of [`ms_loss_grad`]: validates every Sinkhorn
/// input (surfacing poisoned batches as [`SinkhornError`] instead of NaN
/// propagation or panics) and escalates non-converged solves through
/// ε-scaling per `policy`, reporting the retry accounting.
pub fn ms_loss_grad_tracked(
    xbar: &Matrix,
    x: &Matrix,
    mask: &Matrix,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(f64, Matrix, SolveStats), SinkhornError> {
    assert_eq!(xbar.shape(), x.shape(), "ms_loss_grad: data shape mismatch");
    assert_eq!(x.shape(), mask.shape(), "ms_loss_grad: mask shape mismatch");
    let n = x.rows().max(1) as f64;
    let mut stats = SolveStats::default();

    let cross_cost = masked_sq_cost_with(xbar, mask, x, mask, opts.exec);
    let self_a_cost = masked_self_cost_with(xbar, mask, opts.exec);
    let self_b_cost = masked_self_cost_with(x, mask, opts.exec);
    let (cross, s1) = try_sinkhorn_uniform_escalated(&cross_cost, opts, policy)?;
    let (self_a, s2) = try_sinkhorn_uniform_escalated(&self_a_cost, opts, policy)?;
    let (self_b, s3) = try_sinkhorn_uniform_escalated(&self_b_cost, opts, policy)?;
    stats.absorb(s1);
    stats.absorb(s2);
    stats.absorb(s3);

    let value = 2.0 * cross.reg_value - self_a.reg_value - self_b.reg_value;
    let loss = value / (2.0 * n);
    let grad = ms_grad(
        xbar,
        x,
        mask,
        &cross_cost,
        &cross,
        &self_a_cost,
        &self_a,
        opts.exec,
    );
    Ok((loss, grad, stats))
}

/// Hot-path context for [`ms_loss_grad_accel`]: the shared dual cache, the
/// dataset row identities of the batch, and the acceleration knobs.
#[derive(Debug, Clone, Copy)]
pub struct AccelContext<'a> {
    /// Shared warm-start cache (may be [`DualCache::off`], in which case
    /// every solve runs cold, exactly as in [`ms_loss_grad_tracked`]).
    pub cache: &'a DualCache,
    /// Dataset row indices backing this batch, in batch order — the cache
    /// keys. Must have one entry per batch row.
    pub rows: &'a [usize],
    /// Pre-gathered data-side masked rows (`X ⊙ M` for this batch) when the
    /// caller amortized the masking across epochs; `None` recomputes here.
    /// Only consulted when `decomposed_cost` is set.
    pub data_side: Option<&'a MaskedRows>,
    /// Build costs with the decomposed GEMM kernel
    /// ([`masked_sq_cost_decomposed`]) instead of the scalar distance loop.
    pub decomposed_cost: bool,
    /// Anneal *cold* solves through ε-scaling. A cache miss is exactly the
    /// cold-start situation (first epoch, or right after an invalidation),
    /// so the flag naturally applies only there.
    pub eps_scale_cold: bool,
    /// Store solved duals back into the cache. The SSE Monte-Carlo fan-out
    /// sets this to `false` and reuses the training-phase cache read-only.
    pub store: bool,
}

/// One uniform-marginal solve through the cache: warm-start on a full-row
/// hit (degrading to cold if the cached potentials turn out stale), cold
/// otherwise, recording warm/saved-iteration accounting.
fn solve_cached(
    cost: &Matrix,
    kind: SolveKind,
    ctx: &AccelContext<'_>,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
) -> Result<(SinkhornResult, SolveStats), SinkhornError> {
    if let Some((f0, g0)) = ctx.cache.lookup(kind, ctx.rows, ctx.rows) {
        // a failed warm attempt (stale shape, non-finite entry) degrades to
        // the cold path below instead of aborting the guarded run
        if let Ok((r, mut s)) = try_sinkhorn_uniform_warm_escalated(cost, f0, g0, opts, policy) {
            if let Some(base) = ctx.cache.cold_baseline(kind) {
                s.iters_saved = base.saturating_sub(r.iterations);
            }
            if ctx.store {
                ctx.cache.store(kind, ctx.rows, ctx.rows, &r);
            }
            return Ok((r, s));
        }
    }
    let (r, s) = if ctx.eps_scale_cold {
        try_sinkhorn_uniform_eps_scaling(cost, opts, policy.base_stages.max(2))?
    } else {
        try_sinkhorn_uniform_escalated(cost, opts, policy)?
    };
    ctx.cache.note_cold_iters(kind, r.iterations);
    if ctx.store {
        ctx.cache.store(kind, ctx.rows, ctx.rows, &r);
    }
    Ok((r, s))
}

/// Accelerated [`ms_loss_grad_tracked`]: identical mathematics (same three
/// solves, same envelope-theorem gradient) with the Sinkhorn hot path
/// rerouted through the warm-start dual cache and, optionally, the
/// decomposed GEMM cost kernel.
///
/// `cross_cost` lets the caller hand over an already-built cross cost matrix
/// (DIM builds one anyway to resolve a relative λ) so it is not built twice;
/// it must match the kernel selected by `ctx.decomposed_cost`.
///
/// Warm starts never change the fixed point — only the start — so results
/// agree with the cold path within the solver tolerance, and remain
/// bit-identical across thread counts for a fixed configuration.
pub fn ms_loss_grad_accel(
    xbar: &Matrix,
    x: &Matrix,
    mask: &Matrix,
    opts: &SinkhornOptions,
    policy: &EscalationPolicy,
    ctx: &AccelContext<'_>,
    cross_cost: Option<Matrix>,
) -> Result<(f64, Matrix, SolveStats), SinkhornError> {
    assert_eq!(xbar.shape(), x.shape(), "ms_loss_grad: data shape mismatch");
    assert_eq!(x.shape(), mask.shape(), "ms_loss_grad: mask shape mismatch");
    assert_eq!(
        ctx.rows.len(),
        x.rows(),
        "ms_loss_grad_accel: row-key count must match the batch"
    );
    let n = x.rows().max(1) as f64;
    let mut stats = SolveStats::default();

    let (cross_cost, self_a_cost, self_b_cost) = if ctx.decomposed_cost {
        let gen_side = MaskedRows::new(xbar, mask);
        let data_owned;
        let data_side = match ctx.data_side {
            Some(d) => d,
            None => {
                data_owned = MaskedRows::new(x, mask);
                &data_owned
            }
        };
        (
            cross_cost.unwrap_or_else(|| {
                masked_sq_cost_decomposed_p(&gen_side, data_side, opts.exec, opts.precision)
            }),
            masked_sq_cost_decomposed_p(&gen_side, &gen_side, opts.exec, opts.precision),
            masked_sq_cost_decomposed_p(data_side, data_side, opts.exec, opts.precision),
        )
    } else {
        (
            cross_cost.unwrap_or_else(|| masked_sq_cost_with(xbar, mask, x, mask, opts.exec)),
            masked_self_cost_with(xbar, mask, opts.exec),
            masked_self_cost_with(x, mask, opts.exec),
        )
    };

    let (cross, s1) = solve_cached(&cross_cost, SolveKind::Cross, ctx, opts, policy)?;
    let (self_a, s2) = solve_cached(&self_a_cost, SolveKind::SelfA, ctx, opts, policy)?;
    let (self_b, s3) = solve_cached(&self_b_cost, SolveKind::SelfB, ctx, opts, policy)?;
    stats.absorb(s1);
    stats.absorb(s2);
    stats.absorb(s3);

    let value = 2.0 * cross.reg_value - self_a.reg_value - self_b.reg_value;
    let loss = value / (2.0 * n);
    let grad = ms_grad(
        xbar,
        x,
        mask,
        &cross_cost,
        &cross,
        &self_a_cost,
        &self_a,
        opts.exec,
    );
    Ok((loss, grad, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divergence::ms_loss;
    use scis_tensor::Rng64;

    fn opts() -> SinkhornOptions {
        SinkhornOptions {
            lambda: 0.5,
            max_iters: 5000,
            tol: 1e-12,
            ..Default::default()
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Rng64::seed_from_u64(11);
        let n = 6;
        let d = 3;
        let x = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, d, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let o = opts();
        let (_, grad) = ms_loss_grad(&xbar, &x, &mask, &o);

        let h = 1e-5;
        for idx in 0..(n * d) {
            let (i, k) = (idx / d, idx % d);
            let mut plus = xbar.clone();
            plus[(i, k)] += h;
            let mut minus = xbar.clone();
            minus[(i, k)] -= h;
            let numeric =
                (ms_loss(&plus, &x, &mask, &o) - ms_loss(&minus, &x, &mask, &o)) / (2.0 * h);
            let analytic = grad[(i, k)];
            assert!(
                (numeric - analytic).abs() < 1e-5 + 0.02 * numeric.abs(),
                "grad[{},{}]: numeric {} vs analytic {}",
                i,
                k,
                numeric,
                analytic
            );
        }
    }

    /// Largest |want − got| relative to the largest |want| entry.
    fn max_rel_diff(got: &Matrix, want: &Matrix) -> f64 {
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(g, w)| (g - w).abs() / scale)
            .fold(0.0, f64::max)
    }

    /// A batch pair over `n` rows with every fifth row fully masked.
    fn masked_batch(n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = Rng64::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 4, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, 4, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, 4, |i, _| {
            if i % 5 == 3 || !rng.bernoulli(0.7) {
                0.0
            } else {
                1.0
            }
        });
        (x, xbar, mask)
    }

    #[test]
    fn streamed_gradient_matches_the_plan_based_reference() {
        for n in [7usize, 128, 1024] {
            let (x, xbar, mask) = masked_batch(n, 60 + n as u64);
            let cross_cost = masked_sq_cost_with(&xbar, &mask, &x, &mask, ExecPolicy::Serial);
            let self_cost = masked_self_cost_with(&xbar, &mask, ExecPolicy::Serial);
            let o = SinkhornOptions::with_lambda(0.1 * cross_cost.mean())
                .max_iters(20)
                .exec(ExecPolicy::threads(2));
            let (_, grad) = ms_loss_grad(&xbar, &x, &mask, &o);

            // the same (deterministic) solves, differentiated through
            // materialized plans
            let cross = sinkhorn_uniform(&cross_cost, &o);
            let self_a = sinkhorn_uniform(&self_cost, &o);
            let mut want = cross_ot_grad(&xbar, &x, &mask, &cross.plan(&cross_cost)).scale(2.0);
            want.axpy(-1.0, &self_ot_grad(&xbar, &mask, &self_a.plan(&self_cost)));
            let want = want.scale(1.0 / (2.0 * n as f64));
            let rel = max_rel_diff(&grad, &want);
            assert!(rel <= 1e-12, "n={n}: streamed gradient off by {rel:e}");
            for i in (0..n).filter(|i| i % 5 == 3) {
                assert!(grad.row(i).iter().all(|&v| v == 0.0), "masked row {i}");
            }
        }
    }

    #[test]
    fn streamed_gradient_handles_zero_weight_marginal_entries() {
        use crate::sinkhorn::try_sinkhorn;
        let n = 128;
        let (x, xbar, mask) = masked_batch(n, 70);
        let cost = masked_sq_cost_with(&xbar, &mask, &x, &mask, ExecPolicy::Serial);
        let holey = |offset: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..n).map(|i| (i % 7 != offset) as u8 as f64).collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|v| v / total).collect()
        };
        let o = SinkhornOptions::with_lambda(0.1 * cost.mean()).max_iters(50);
        let r = try_sinkhorn(&cost, &holey(2), &holey(5), &o).unwrap();
        let x_m = x.hadamard(&mask);
        let term = GradTerm {
            cost: &cost,
            solve: &r,
            targets: &x_m,
            weight: 1.0,
        };
        let got = streamed_grad(&xbar, &mask, &[term], ExecPolicy::threads(3));
        let want = cross_ot_grad(&xbar, &x, &mask, &r.plan(&cost));
        assert!(got.as_slice().iter().all(|v| v.is_finite()));
        let rel = max_rel_diff(&got, &want);
        assert!(rel <= 1e-12, "streamed gradient off by {rel:e}");
        // rows with no mass get no gradient
        for i in (0..n).filter(|i| i % 7 == 2) {
            assert!(got.row(i).iter().all(|&v| v == 0.0), "zero-mass row {i}");
        }
    }

    #[test]
    fn gradient_zero_on_masked_entries() {
        let mut rng = Rng64::seed_from_u64(12);
        let x = Matrix::from_fn(5, 2, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(5, 2, |_, _| rng.uniform());
        let mask = Matrix::from_fn(5, 2, |i, j| if (i + j) % 2 == 0 { 1.0 } else { 0.0 });
        let (_, grad) = ms_loss_grad(&xbar, &x, &mask, &opts());
        for i in 0..5 {
            for j in 0..2 {
                if mask[(i, j)] == 0.0 {
                    assert_eq!(grad[(i, j)], 0.0, "gradient leaked into missing cell");
                }
            }
        }
    }

    #[test]
    fn gradient_vanishes_at_identical_batches() {
        let mut rng = Rng64::seed_from_u64(13);
        let x = Matrix::from_fn(6, 2, |_, _| rng.uniform());
        let mask = Matrix::ones(6, 2);
        let (loss, grad) = ms_loss_grad(&x, &x, &mask, &opts());
        assert!(loss.abs() < 1e-8);
        // at ν̂ = μ̂ the cross and self plans coincide, so 2g_cross = g_self
        assert!(
            grad.frobenius_norm() < 1e-6,
            "‖grad‖ = {}",
            grad.frobenius_norm()
        );
    }

    #[test]
    fn accel_off_cache_matches_tracked_exactly() {
        // with the cache off and the loop kernel, the accel path must be
        // bit-identical to ms_loss_grad_tracked (same solves, same order)
        let mut rng = Rng64::seed_from_u64(21);
        let n = 8;
        let x = Matrix::from_fn(n, 3, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, 3, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, 3, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let o = opts();
        let policy = EscalationPolicy::default();
        let (l1, g1, s1) = ms_loss_grad_tracked(&xbar, &x, &mask, &o, &policy).unwrap();
        let rows: Vec<usize> = (0..n).collect();
        let cache = crate::cache::DualCache::off();
        let ctx = AccelContext {
            cache: &cache,
            rows: &rows,
            data_side: None,
            decomposed_cost: false,
            eps_scale_cold: false,
            store: true,
        };
        let (l2, g2, s2) = ms_loss_grad_accel(&xbar, &x, &mask, &o, &policy, &ctx, None).unwrap();
        assert_eq!(l1.to_bits(), l2.to_bits());
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(s1, s2);
    }

    #[test]
    fn accel_warm_start_agrees_with_cold_within_tol() {
        let mut rng = Rng64::seed_from_u64(22);
        let n = 10;
        let x = Matrix::from_fn(n, 3, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, 3, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, 3, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let o = opts();
        let policy = EscalationPolicy::default();
        let (cold_loss, cold_grad, _) =
            ms_loss_grad_tracked(&xbar, &x, &mask, &o, &policy).unwrap();

        let rows: Vec<usize> = (0..n).collect();
        let cache = crate::cache::DualCache::enabled();
        let ctx = AccelContext {
            cache: &cache,
            rows: &rows,
            data_side: None,
            decomposed_cost: false,
            eps_scale_cold: false,
            store: true,
        };
        // first pass populates the cache (cold), second warm-starts
        let (_, _, s_first) =
            ms_loss_grad_accel(&xbar, &x, &mask, &o, &policy, &ctx, None).unwrap();
        assert_eq!(s_first.warm_starts, 0);
        let (warm_loss, warm_grad, s_warm) =
            ms_loss_grad_accel(&xbar, &x, &mask, &o, &policy, &ctx, None).unwrap();
        assert_eq!(s_warm.warm_starts, 3, "all three solves should warm-start");
        assert!(
            s_warm.iterations <= s_first.iterations,
            "warm {} vs cold {} iterations",
            s_warm.iterations,
            s_first.iterations
        );
        assert!((warm_loss - cold_loss).abs() < 1e-6);
        for (a, b) in warm_grad.as_slice().iter().zip(cold_grad.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    #[test]
    fn accel_decomposed_cost_matches_loop_cost_closely() {
        let mut rng = Rng64::seed_from_u64(23);
        let n = 9;
        let x = Matrix::from_fn(n, 4, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, 4, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, 4, |_, _| if rng.bernoulli(0.6) { 1.0 } else { 0.0 });
        let o = opts();
        let policy = EscalationPolicy::default();
        let (l_loop, g_loop, _) = ms_loss_grad_tracked(&xbar, &x, &mask, &o, &policy).unwrap();
        let rows: Vec<usize> = (0..n).collect();
        let cache = crate::cache::DualCache::off();
        let data_side = MaskedRows::new(&x, &mask);
        let ctx = AccelContext {
            cache: &cache,
            rows: &rows,
            data_side: Some(&data_side),
            decomposed_cost: true,
            eps_scale_cold: false,
            store: false,
        };
        let (l_dec, g_dec, _) =
            ms_loss_grad_accel(&xbar, &x, &mask, &o, &policy, &ctx, None).unwrap();
        assert!((l_loop - l_dec).abs() < 1e-7, "{} vs {}", l_loop, l_dec);
        for (a, b) in g_loop.as_slice().iter().zip(g_dec.as_slice()) {
            assert!((a - b).abs() < 1e-7, "{} vs {}", a, b);
        }
    }

    #[test]
    fn example1_gradient_is_linear_in_theta() {
        // Paper's "vanishing gradient" contrast: the MS loss derivative in
        // the Dirac example is ≈ 4qθ / (2n) per coordinate — linear, nonzero
        // for θ ≠ 0, unlike the JS divergence whose gradient is 0 a.e.
        let n = 100;
        let q = 0.5;
        let mut rng = Rng64::seed_from_u64(14);
        let mask = Matrix::from_fn(n, 1, |_, _| if rng.bernoulli(q) { 1.0 } else { 0.0 });
        let x0 = Matrix::zeros(n, 1);
        // λ ≪ θ² so the plans sit in the block-diagonal regime where the
        // paper's closed form S = 2qθ² + const holds.
        let o = SinkhornOptions {
            lambda: 0.01,
            max_iters: 20_000,
            tol: 1e-12,
            ..Default::default()
        };
        let grad_at = |theta: f64| {
            let xt = Matrix::full(n, 1, theta);
            let (_, g) = ms_loss_grad(&xt, &x0, &mask, &o);
            g.sum() // total derivative dL/dθ (all coords move together)
        };
        let g1 = grad_at(0.5);
        let g2 = grad_at(1.0);
        assert!(g1 > 1e-4, "gradient vanished: {}", g1);
        // linearity: doubling θ ≈ doubles the gradient
        assert!((g2 / g1 - 2.0).abs() < 0.25, "ratio {}", g2 / g1);
    }
}
