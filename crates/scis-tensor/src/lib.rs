#![warn(missing_docs)]

//! `scis-tensor` — dense numerical substrate for the SCIS reproduction.
//!
//! This crate provides the row-major [`Matrix`] type together with the
//! linear-algebra, random-number and statistics helpers every other crate in
//! the workspace builds on. It is deliberately dependency-free: the PRNG is
//! a self-contained xoshiro256++ implementation so that every experiment in
//! the paper reproduction is bit-for-bit deterministic under a fixed seed.
//!
//! # Modules
//! * [`matrix`] — the dense row-major `f64` matrix with shape-checked ops.
//! * [`ops`] — the one GEMM entry point [`ops::gemm`] (three operand
//!   layouts, two precisions, any [`ExecPolicy`], bit-identical at every
//!   thread count), its naive oracle [`ops::gemm_naive`], and
//!   [`ops::pairwise_sq_dists`].
//! * [`exec`] — the [`ExecPolicy`] execution-policy type and the
//!   deterministic row-block parallel helpers.
//! * [`par`] — `matmul_bt_exec_p`, a one-line `A · Bᵀ` wrapper over
//!   [`ops::gemm`].
//! * [`fastmath`] — the opt-in compute [`Precision`] mode (`f32` storage,
//!   `f64` accumulation) and the polynomial `fast_exp` used by the
//!   accelerated Sinkhorn sweeps.
//! * [`linalg`] — Cholesky factorization and ridge solvers used by the MICE
//!   baseline and the SSE module.
//! * [`rng`] — deterministic xoshiro256++ PRNG with Gaussian sampling.
//! * [`stats`] — column statistics (mean, variance, quantiles).
//! * [`deadline`] — cooperative run-deadline token for graceful shutdown.
//!
//! [`fnv1a64`] is the checksum of every on-disk format in the workspace.

pub mod deadline;
pub mod exec;
pub mod fastmath;
pub mod linalg;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod rng;
pub mod stats;

pub use deadline::RunDeadline;
pub use exec::ExecPolicy;
pub use fastmath::Precision;
pub use matrix::Matrix;
pub use rng::{Rng64, RngState};

/// FNV-1a 64-bit hash — the dependency-free checksum of the model,
/// checkpoint and bundle formats and of spill shards. Not cryptographic;
/// detects truncation and bit-rot.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
