//! Layers: dense (fully connected), pointwise activations, inverted dropout.
//!
//! Every layer caches whatever its backward pass needs during `forward`, so
//! the calling convention is strict: one `backward` per `forward`, in reverse
//! order — exactly what [`crate::mlp::Mlp`] enforces.

use scis_tensor::ops::{gemm, Op};
use scis_tensor::{ExecPolicy, Matrix, Precision, Rng64};

/// Forward-pass mode: training enables dropout, evaluation disables it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training mode — stochastic regularizers active.
    Train,
    /// Inference mode — deterministic forward.
    Eval,
}

/// A differentiable layer with cached state for backprop.
pub trait Layer: Send {
    /// Computes the layer output for a `batch x in_dim` input.
    fn forward(&mut self, x: &Matrix, mode: Mode, rng: &mut Rng64) -> Matrix;

    /// Backpropagates `grad_out` (`batch x out_dim`), accumulating parameter
    /// gradients and returning the gradient w.r.t. the layer input.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Visits `(params, grads)` slice pairs. Order is stable across calls —
    /// the optimizers and the parameter flattener rely on that.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));

    /// Read-only counterpart of [`Layer::visit_params`]: visits parameter
    /// slices in the same stable order without requiring `&mut self`.
    /// Parameter-free layers keep the default no-op.
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&[f64])) {}

    /// Total number of trainable parameters.
    fn num_params(&self) -> usize;

    /// Resets accumulated gradients to zero.
    fn zero_grad(&mut self);

    /// Sets the execution policy for this layer's kernels. Parallelism never
    /// changes results (the kernels are bit-identical to serial), so layers
    /// without heavy kernels ignore this; the default is a no-op.
    fn set_exec(&mut self, _policy: ExecPolicy) {}

    /// Sets the compute precision of this layer's kernels. The default
    /// [`Precision::F64`] is the bit-stable path; [`Precision::F32`] is the
    /// opt-in accelerated mode (f32 operand storage, f64 accumulation).
    /// Layers without GEMM kernels ignore this; the default is a no-op.
    fn set_precision(&mut self, _precision: Precision) {}

    /// Deep-copies the layer behind a fresh box (used to clone whole
    /// networks for the parallel SSE Monte-Carlo fan-out).
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// Fully connected layer: `y = x · W + b` with `W: in x out`.
#[derive(Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    cached_input: Option<Matrix>,
    exec: ExecPolicy,
    precision: Precision,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        let weight = crate::init::xavier_uniform(in_dim, out_dim, rng);
        Self {
            weight,
            bias: vec![0.0; out_dim],
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            cached_input: None,
            exec: ExecPolicy::default(),
            precision: Precision::default(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Read-only view of the weight matrix (tests/diagnostics).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Matrix, _mode: Mode, _rng: &mut Rng64) -> Matrix {
        assert_eq!(
            x.cols(),
            self.weight.rows(),
            "Dense::forward: input dim {} != layer in_dim {}",
            x.cols(),
            self.weight.rows()
        );
        self.cached_input = Some(x.clone());
        gemm(x, Op::Nn, &self.weight, self.exec, self.precision).add_row_broadcast(&self.bias)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // dW += xᵀ · grad_out ; db += column sums ; dx = grad_out · Wᵀ
        let gw = gemm(x, Op::Tn, grad_out, self.exec, self.precision);
        self.grad_w.axpy(1.0, &gw);
        for (b, s) in self.grad_b.iter_mut().zip(grad_out.col_sums()) {
            *b += s;
        }
        gemm(grad_out, Op::Nt, &self.weight, self.exec, self.precision)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.weight.as_mut_slice(), self.grad_w.as_mut_slice());
        f(&mut self.bias, &mut self.grad_b);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&[f64])) {
        f(self.weight.as_slice());
        f(&self.bias);
    }

    fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn zero_grad(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn set_exec(&mut self, policy: ExecPolicy) {
        self.exec = policy;
    }

    fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Pointwise activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x if x > 0 else 0.01·x
    LeakyRelu,
    /// 1/(1+e^{-x})
    Sigmoid,
    /// tanh(x)
    Tanh,
    /// identity (useful as a named no-op head)
    Identity,
}

impl Activation {
    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::LeakyRelu => {
                if v > 0.0 {
                    v
                } else {
                    0.01 * v
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Tanh => v.tanh(),
            Activation::Identity => v,
        }
    }

    /// Derivative expressed through input `x` and output `y = f(x)`.
    #[inline]
    fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// Stateless activation layer (caches input and output for backward).
#[derive(Clone)]
pub struct ActLayer {
    act: Activation,
    cached_in: Option<Matrix>,
    cached_out: Option<Matrix>,
}

impl ActLayer {
    /// Wraps an [`Activation`] as a layer.
    pub fn new(act: Activation) -> Self {
        Self {
            act,
            cached_in: None,
            cached_out: None,
        }
    }
}

impl Layer for ActLayer {
    fn forward(&mut self, x: &Matrix, _mode: Mode, _rng: &mut Rng64) -> Matrix {
        let out = x.map(|v| self.act.apply(v));
        self.cached_in = Some(x.clone());
        self.cached_out = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_in
            .as_ref()
            .expect("ActLayer::backward before forward");
        let y = self
            .cached_out
            .as_ref()
            .expect("ActLayer::backward before forward");
        let mut grad = grad_out.clone();
        let act = self.act;
        for ((g, &xv), &yv) in grad
            .as_mut_slice()
            .iter_mut()
            .zip(x.as_slice())
            .zip(y.as_slice())
        {
            *g *= act.derivative(xv, yv);
        }
        grad
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f64], &mut [f64])) {}

    fn num_params(&self) -> usize {
        0
    }

    fn zero_grad(&mut self) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Inverted dropout: keeps each unit with probability `1 - p` during
/// training and scales by `1/(1-p)`, identity at evaluation time.
#[derive(Clone)]
pub struct Dropout {
    p: f64,
    mask: Option<Matrix>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "Dropout: p must be in [0,1)");
        Self { p, mask: None }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Matrix, mode: Mode, rng: &mut Rng64) -> Matrix {
        match mode {
            Mode::Eval => {
                self.mask = None;
                x.clone()
            }
            Mode::Train => {
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
                    if rng.bernoulli(keep) {
                        scale
                    } else {
                        0.0
                    }
                });
                let out = x.hadamard(&mask);
                self.mask = Some(mask);
                out
            }
        }
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match &self.mask {
            Some(mask) => grad_out.hadamard(mask),
            None => grad_out.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f64], &mut [f64])) {}

    fn num_params(&self) -> usize {
        0
    }

    fn zero_grad(&mut self) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng64 {
        Rng64::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn dense_forward_known_values() {
        let mut r = rng();
        let mut d = Dense::new(2, 1, &mut r);
        // overwrite params deterministically
        d.visit_params(&mut |p, _| {
            for (i, v) in p.iter_mut().enumerate() {
                *v = (i + 1) as f64;
            }
        });
        // W = [[1],[2]], b = [1]
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.5]]);
        let y = d.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn dense_backward_shapes_and_accumulation() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, &mut r);
        let x = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let _ = d.forward(&x, Mode::Train, &mut r);
        let g = Matrix::ones(4, 2);
        let gin = d.backward(&g);
        assert_eq!(gin.shape(), (4, 3));
        let mut total_grad_before = 0.0;
        d.visit_params(&mut |_, g| total_grad_before += g.iter().map(|v| v.abs()).sum::<f64>());
        assert!(total_grad_before > 0.0);
        // second backward accumulates
        let _ = d.forward(&x, Mode::Train, &mut r);
        let _ = d.backward(&g);
        let mut total_after = 0.0;
        d.visit_params(&mut |_, g| total_after += g.iter().map(|v| v.abs()).sum::<f64>());
        assert!((total_after - 2.0 * total_grad_before).abs() < 1e-9);
        d.zero_grad();
        let mut total_zero = 0.0;
        d.visit_params(&mut |_, g| total_zero += g.iter().map(|v| v.abs()).sum::<f64>());
        assert_eq!(total_zero, 0.0);
    }

    #[test]
    fn activation_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::LeakyRelu.apply(-1.0), -0.01);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
    }

    #[test]
    fn activation_derivatives_match_finite_difference() {
        let h = 1e-6;
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x, y);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{:?} at {}: {} vs {}",
                    act,
                    x,
                    numeric,
                    analytic
                );
            }
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut r = rng();
        let mut d = Dropout::new(0.5);
        let x = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let y = d.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut r = rng();
        let mut d = Dropout::new(0.3);
        let x = Matrix::ones(200, 50);
        let y = d.forward(&x, Mode::Train, &mut r);
        // inverted dropout: E[y] == x
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // some zeros actually happened
        assert!(y.as_slice().iter().filter(|&&v| v == 0.0).count() > 1000);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut r = rng();
        let mut d = Dropout::new(0.5);
        let x = Matrix::ones(10, 10);
        let y = d.forward(&x, Mode::Train, &mut r);
        let g = d.backward(&Matrix::ones(10, 10));
        // gradient must be zero exactly where output was dropped
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }
}
