#![warn(missing_docs)]

//! `scis-ot` — entropic optimal transport and the paper's masking Sinkhorn
//! (MS) divergence.
//!
//! The DIM module of SCIS replaces a GAN imputer's Jensen–Shannon loss with
//! the divergence defined here (paper Definitions 2–4):
//!
//! * [`cost::masked_sq_cost`] — the masking cost matrix
//!   `C_m[i][j] = ‖m_i ⊙ x̄_i − m_j ⊙ x_j‖²` (Definition 2);
//! * [`sinkhorn::solve`] — log-domain Sinkhorn iterations solving the
//!   entropic-regularized problem of Definition 3, cold, warm-started or
//!   annealed, with escalation of unconverged solves. A solve returns the
//!   dual potentials and the objective, reduced from `log P` in one parallel
//!   pass; the plan itself is materialized only on demand
//!   ([`SinkhornResult::plan`]);
//! * [`divergence::ms_divergence`] — the debiased divergence
//!   `S_m(ν‖μ) = 2·OT_λ(ν,μ) − OT_λ(ν,ν) − OT_λ(μ,μ)` (Definition 4);
//! * [`grad::ms_loss_grad`] — the loss and barycentric-map gradient of
//!   Proposition 1, streamed row by row from the duals without an `n x m`
//!   plan buffer, optionally through the warm-start [`DualCache`], and
//!   verified against finite differences and the plan-based
//!   [`grad::cross_ot_grad`] in tests.

pub mod cache;
pub mod cost;
pub mod divergence;
pub mod grad;
pub mod sinkhorn;
pub mod sliced;

pub use cache::{CacheStats, DualCache, SolveKind};
pub use cost::{
    masked_self_cost, masked_self_cost_with, masked_sq_cost, masked_sq_cost_decomposed,
    masked_sq_cost_decomposed_p, masked_sq_cost_with, MaskedRows,
};
pub use divergence::{ms_divergence, ms_loss, MsDivergenceValue};
pub use grad::{cross_ot_grad, ms_loss_grad, self_ot_grad, AccelContext};
pub use sinkhorn::{
    solve, try_sinkhorn_uniform, EscalationPolicy, SinkhornError, SinkhornOptions, SinkhornResult,
    SolveStats, Start,
};
pub use sliced::{sliced_w2_loss, sliced_w2_loss_grad, SlicedOptions};
