//! The one per-layout GEMM name left beside [`crate::ops::gemm`]:
//! `loadbench`'s GEMM microcall (`bench/src/micro.rs`) calls it by this
//! name. Everything else calls `gemm` directly.

use crate::exec::ExecPolicy;
use crate::fastmath::Precision;
use crate::matrix::Matrix;
use crate::ops::{gemm, Op};

/// `A · Bᵀ` under `policy` and `precision`: [`gemm`] with [`Op::Nt`].
pub fn matmul_bt_exec_p(
    a: &Matrix,
    b: &Matrix,
    policy: ExecPolicy,
    precision: Precision,
) -> Matrix {
    gemm(a, Op::Nt, b, policy, precision)
}
