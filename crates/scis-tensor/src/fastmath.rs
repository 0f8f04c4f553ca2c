//! Compute-precision selection and the accelerated `exp` kernel.
//!
//! The default numeric mode of the whole workspace is pure `f64`: every
//! kernel accumulates each output in an order fixed by the data, not by the
//! partition, so results are bit-identical at any thread count. This module
//! hosts the opt-in fast path:
//!
//! * [`Precision::F32`] — operands of the GEMM / sweep hot loops are stored
//!   as `f32` (halving memory bandwidth, the bottleneck of the substrate's
//!   medium-sized products) while every accumulator stays `f64`. Results
//!   differ from the default path by the f32 rounding of the *inputs* only;
//!   they remain bit-identical across thread counts for a fixed mode.
//! * [`fast_exp`] — a branch-light polynomial `exp` the compiler can
//!   auto-vectorize across a row, used by the Sinkhorn sweeps under
//!   [`Precision::F32`] (the pipeline's dominant cost is literally millions
//!   of `exp` calls).
//!
//! Both are wired through `AccelConfig` upstream and default **off**. The
//! two precisions run the same kernels — one GEMM, one Sinkhorn sweep loop
//! — which differ only in operand storage and, in the sweeps, the `exp`.

/// Storage precision of the compute hot loops. Accumulation is always `f64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Pure double precision, with libm `exp` in the Sinkhorn sweeps — the
    /// default.
    #[default]
    F64,
    /// `f32` operand storage with `f64` accumulation: operands of the GEMM
    /// and Sinkhorn sweep kernels are rounded to `f32` once, then widened
    /// back per multiply, and the sweeps use [`fast_exp`]. Opt-in via
    /// `AccelConfig::f32_compute`.
    F32,
}

impl Precision {
    /// True when the mode stores operands in `f32`.
    pub fn is_f32(self) -> bool {
        matches!(self, Precision::F32)
    }

    /// Parses the CLI/bundle spelling: `"f64"` or `"f32"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            other => Err(format!("bad precision {:?} (expected f64 or f32)", other)),
        }
    }
}

// Argument-reduction constants: ln(2) split hi/lo so `x - k·ln2` is exact to
// well below the polynomial's error, and the round-to-nearest "magic shift".
const LOG2_E: f64 = std::f64::consts::LOG2_E;
const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Branch-light polynomial `e^x` with ≤ ~1e-13 relative error.
///
/// Classic reduction `x = k·ln2 + r`, `|r| ≤ ln2/2`, degree-11 Taylor for
/// `e^r` (Horner), and a bit-twiddled `2^k` scale. The body is free of
/// data-dependent branches, so LLVM vectorizes it across a row of logits —
/// which is why the accelerated Sinkhorn sweeps use it in place of the
/// (scalar, call-per-element) libm `exp`.
///
/// Domain notes: inputs are clamped to `[-708, 709]`, so deep underflow
/// saturates near `2.3e-308` instead of flushing to exactly `0.0` (harmless
/// for log-sum-exp work, where such terms vanish against the leading `1.0`)
/// and `+inf` saturates to a huge finite value. `NaN` propagates.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    // clamp keeps the 2^k scale in the representable exponent range;
    // NaN passes through (f64::clamp propagates NaN)
    let x = x.clamp(-708.0, 709.0);
    let t = x * LOG2_E + MAGIC;
    let kf = t - MAGIC; // round-to-nearest(x · log2 e), exactly an integer
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // e^r, |r| ≤ 0.3466: Taylor to degree 11 leaves < 1e-14 relative error.
    // Horner evaluation written as a flat `let` chain (same association as
    // the nested form, which rustfmt cannot format).
    let p = 1.0 / 39916800.0;
    let p = 1.0 / 3628800.0 + r * p;
    let p = 1.0 / 362880.0 + r * p;
    let p = 1.0 / 40320.0 + r * p;
    let p = 1.0 / 5040.0 + r * p;
    let p = 1.0 / 720.0 + r * p;
    let p = 1.0 / 120.0 + r * p;
    let p = 1.0 / 24.0 + r * p;
    let p = 1.0 / 6.0 + r * p;
    let p = 0.5 + r * p;
    let p = 1.0 + r * p;
    let p = 1.0 + r * p;
    // 2^k: k is recovered from the magic-shifted representation's low
    // mantissa bits — an integer add and shift, no float→int conversion,
    // so the whole body stays vectorizable. (For |k| ≤ 1022 the mantissa
    // field of `t` is exactly 2^51 + k, and the 2^51 vanishes mod 2^12
    // under the shift.) NaN: p is already NaN, and NaN times any scale
    // (even a garbage zero) stays NaN.
    let scale = f64::from_bits(((t.to_bits() as i64).wrapping_add(1023) << 52) as u64);
    p * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_default_is_f64() {
        assert_eq!(Precision::default(), Precision::F64);
        assert!(!Precision::F64.is_f32());
        assert!(Precision::F32.is_f32());
    }

    #[test]
    fn precision_parse_roundtrip() {
        assert_eq!(Precision::parse("f64"), Ok(Precision::F64));
        assert_eq!(Precision::parse(" f32 "), Ok(Precision::F32));
        assert!(Precision::parse("f16").is_err());
    }

    #[test]
    fn fast_exp_matches_libm_within_tolerance() {
        // dense sweep over the range the Sinkhorn logits actually occupy
        let mut worst = 0.0f64;
        let mut x = -700.0f64;
        while x <= 700.0 {
            let want = x.exp();
            let got = fast_exp(x);
            let rel = if want > 0.0 {
                ((got - want) / want).abs()
            } else {
                got.abs()
            };
            worst = worst.max(rel);
            x += 0.037;
        }
        assert!(worst < 1e-12, "worst relative error {worst:e}");
    }

    #[test]
    fn fast_exp_edge_cases() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert!((fast_exp(1.0) - std::f64::consts::E).abs() < 1e-13);
        // deep underflow saturates near the smallest normal, not exactly 0
        assert!(fast_exp(-1e9) < 1e-300);
        assert!(fast_exp(f64::NEG_INFINITY) < 1e-300);
        assert!(fast_exp(1e9).is_finite() && fast_exp(1e9) > 1e300);
        assert!(fast_exp(f64::NAN).is_nan());
    }
}
