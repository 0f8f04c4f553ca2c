//! The masking Sinkhorn (MS) divergence — paper Definition 4.
//!
//! `S_m(ν̂_x̄ ‖ μ̂_x) = 2·OT_λ^m(ν̂, μ̂) − OT_λ^m(ν̂, ν̂) − OT_λ^m(μ̂, μ̂)`
//!
//! where each `OT_λ^m` is the entropic-regularized optimal transport value
//! of Definition 3 over mask-projected samples. The debiasing ("corrective")
//! terms cancel the entropic bias so the divergence is non-negative and
//! vanishes iff the two masked empirical measures coincide — this is what
//! lets DIM use it as a GAN loss with usable gradients everywhere.

use crate::cost::{masked_self_cost, masked_sq_cost};
use crate::sinkhorn::{solve, EscalationPolicy, SinkhornOptions, SinkhornResult, Start};
use scis_tensor::Matrix;

/// Full decomposition of one MS-divergence evaluation.
#[derive(Debug, Clone)]
pub struct MsDivergenceValue {
    /// The divergence `S_m(ν̂ ‖ μ̂)`.
    pub value: f64,
    /// Cross solve `OT_λ^m(ν̂, μ̂)`.
    pub cross: SinkhornResult,
    /// Self solve on the reconstructed side, `OT_λ^m(ν̂, ν̂)`.
    pub self_a: SinkhornResult,
    /// Self solve on the data side, `OT_λ^m(μ̂, μ̂)`.
    pub self_b: SinkhornResult,
}

/// Computes the MS divergence between the reconstructed batch `xbar` and the
/// observed batch `x`, both masked by the batch mask `mask` (1 = observed).
///
/// All three entropic OT problems are solved cold with the same `opts`, and
/// without escalation.
///
/// # Panics
/// Panics if the shapes differ or a solve rejects its input (see
/// [`crate::SinkhornError`]).
pub fn ms_divergence(
    xbar: &Matrix,
    x: &Matrix,
    mask: &Matrix,
    opts: &SinkhornOptions,
) -> MsDivergenceValue {
    assert_eq!(
        xbar.shape(),
        x.shape(),
        "ms_divergence: data shape mismatch"
    );
    assert_eq!(
        x.shape(),
        mask.shape(),
        "ms_divergence: mask shape mismatch"
    );

    let cross_cost = masked_sq_cost(xbar, mask, x, mask);
    let self_a_cost = masked_self_cost(xbar, mask);
    let self_b_cost = masked_self_cost(x, mask);

    let plain = |cost: &Matrix| {
        solve(cost, None, Start::Cold, opts, &EscalationPolicy::none())
            .unwrap_or_else(|e| panic!("{e}"))
            .0
    };
    let cross = plain(&cross_cost);
    let self_a = plain(&self_a_cost);
    let self_b = plain(&self_b_cost);

    let value = 2.0 * cross.reg_value - self_a.reg_value - self_b.reg_value;
    MsDivergenceValue {
        value,
        cross,
        self_a,
        self_b,
    }
}

/// The paper's imputation loss `L_s(X, M) = S_m(ν̂ ‖ μ̂) / (2n)`.
pub fn ms_loss(xbar: &Matrix, x: &Matrix, mask: &Matrix, opts: &SinkhornOptions) -> f64 {
    let n = x.rows().max(1) as f64;
    ms_divergence(xbar, x, mask, opts).value / (2.0 * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_tensor::Rng64;

    fn opts(lambda: f64) -> SinkhornOptions {
        SinkhornOptions {
            lambda,
            max_iters: 2000,
            tol: 1e-10,
            ..Default::default()
        }
    }

    #[test]
    fn divergence_is_zero_for_identical_batches() {
        let mut rng = Rng64::seed_from_u64(1);
        let x = Matrix::from_fn(10, 4, |_, _| rng.uniform());
        let m = Matrix::from_fn(10, 4, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let d = ms_divergence(&x, &x, &m, &opts(0.5));
        assert!(d.value.abs() < 1e-7, "S(x‖x) = {}", d.value);
    }

    #[test]
    fn divergence_is_nonnegative() {
        let mut rng = Rng64::seed_from_u64(2);
        for trial in 0..5 {
            let a = Matrix::from_fn(8, 3, |_, _| rng.uniform());
            let b = Matrix::from_fn(8, 3, |_, _| rng.uniform());
            let m = Matrix::from_fn(8, 3, |_, _| if rng.bernoulli(0.6) { 1.0 } else { 0.0 });
            let d = ms_divergence(&a, &b, &m, &opts(0.3));
            assert!(d.value > -1e-7, "trial {}: S = {}", trial, d.value);
        }
    }

    #[test]
    fn divergence_grows_with_separation() {
        let mut rng = Rng64::seed_from_u64(3);
        let x = Matrix::from_fn(12, 2, |_, _| rng.uniform() * 0.1);
        let m = Matrix::ones(12, 2);
        let near = x.map(|v| v + 0.05);
        let far = x.map(|v| v + 0.5);
        let o = opts(0.2);
        let d_near = ms_divergence(&near, &x, &m, &o).value;
        let d_far = ms_divergence(&far, &x, &m, &o).value;
        assert!(d_far > d_near, "{} vs {}", d_far, d_near);
    }

    #[test]
    fn masked_dimensions_do_not_contribute() {
        let mut rng = Rng64::seed_from_u64(4);
        let x = Matrix::from_fn(6, 2, |_, _| rng.uniform());
        // second feature fully masked out
        let m = Matrix::from_fn(6, 2, |_, j| if j == 0 { 1.0 } else { 0.0 });
        // xbar differs wildly in the masked feature only
        let mut xbar = x.clone();
        for i in 0..6 {
            xbar[(i, 1)] = 100.0 + i as f64;
        }
        let d = ms_divergence(&xbar, &x, &m, &opts(0.5));
        assert!(d.value.abs() < 1e-7, "masked feature leaked: {}", d.value);
    }

    /// The paper's Example 1: p0 = δ_0, p_θ = δ_θ, MCAR mask m ~ Ber(q).
    /// Closed form (paper §IV.A): S_m = 2qθ² + λ[(1−q)log(1−q) + q·log q],
    /// quadratic in θ with informative gradients everywhere, unlike the JS
    /// divergence whose gradient is 0 a.e. The closed form is the λ → 0
    /// (block-diagonal plan) regime, so we probe with λ ≪ θ².
    #[test]
    fn example1_ms_divergence_quadratic_in_theta() {
        let n = 120;
        let q = 0.4;
        let mut rng = Rng64::seed_from_u64(5);
        // empirical Bernoulli(q) masks, shared by both sides (MCAR)
        let m = Matrix::from_fn(n, 1, |_, _| if rng.bernoulli(q) { 1.0 } else { 0.0 });
        let q_emp = m.mean(); // realized missing-ness
        let x0 = Matrix::zeros(n, 1);
        let lambda = 0.01;
        let o = SinkhornOptions {
            lambda,
            max_iters: 20_000,
            tol: 1e-11,
            ..Default::default()
        };
        let entropy_const = lambda * ((1.0 - q_emp) * (1.0 - q_emp).ln() + q_emp * q_emp.ln());
        let mut prev = -1.0;
        for &theta in &[0.5f64, 0.8, 1.2] {
            let xt = Matrix::full(n, 1, theta);
            let d = ms_divergence(&xt, &x0, &m, &o).value;
            let expect = 2.0 * q_emp * theta * theta + entropy_const;
            assert!(
                (d - expect).abs() < 0.1 * expect.abs() + 1e-2,
                "θ={}: S={} expect≈{}",
                theta,
                d,
                expect
            );
            assert!(d > prev, "S not increasing at θ={}", theta);
            prev = d;
        }
    }

    #[test]
    fn divergence_is_symmetric() {
        let mut rng = Rng64::seed_from_u64(7);
        let a = Matrix::from_fn(7, 3, |_, _| rng.uniform());
        let b = Matrix::from_fn(7, 3, |_, _| rng.uniform());
        let m = Matrix::from_fn(7, 3, |_, _| if rng.bernoulli(0.6) { 1.0 } else { 0.0 });
        let o = opts(0.4);
        let ab = ms_divergence(&a, &b, &m, &o).value;
        let ba = ms_divergence(&b, &a, &m, &o).value;
        assert!((ab - ba).abs() < 1e-8, "S(a,b)={} S(b,a)={}", ab, ba);
    }

    #[test]
    fn cross_plan_has_uniform_marginals() {
        let mut rng = Rng64::seed_from_u64(8);
        let a = Matrix::from_fn(5, 2, |_, _| rng.uniform());
        let b = Matrix::from_fn(5, 2, |_, _| rng.uniform());
        let m = Matrix::ones(5, 2);
        let d = ms_divergence(&a, &b, &m, &opts(0.3));
        let plan = d.cross.plan(&masked_sq_cost(&a, &m, &b, &m));
        for s in plan.row_sums() {
            assert!((s - 0.2).abs() < 1e-7);
        }
        for s in plan.col_sums() {
            assert!((s - 0.2).abs() < 1e-7);
        }
    }

    #[test]
    fn single_row_batches_are_handled() {
        let a = Matrix::from_rows(&[&[0.3, 0.7]]);
        let b = Matrix::from_rows(&[&[0.5, 0.1]]);
        let m = Matrix::ones(1, 2);
        let d = ms_divergence(&a, &b, &m, &opts(0.5));
        assert!(d.value.is_finite());
        // with one point per side, OT is just the pair cost; debiasing
        // removes the (zero-cost) self terms' entropy
        assert!(d.value > 0.0);
    }

    #[test]
    fn loss_is_divergence_over_2n() {
        let mut rng = Rng64::seed_from_u64(6);
        let a = Matrix::from_fn(5, 2, |_, _| rng.uniform());
        let b = Matrix::from_fn(5, 2, |_, _| rng.uniform());
        let m = Matrix::ones(5, 2);
        let o = opts(0.5);
        let d = ms_divergence(&a, &b, &m, &o).value;
        let l = ms_loss(&a, &b, &m, &o);
        assert!((l - d / 10.0).abs() < 1e-12);
    }
}
