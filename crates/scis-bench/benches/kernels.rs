//! Microbenchmarks for the hot kernels: Sinkhorn solves at the paper's
//! batch size, the MS-divergence gradient, GAIN adversarial steps, and the
//! GINN graph build whose O(N²) growth explains the paper's Table IV dashes.
//!
//! The container has no cargo registry access, so this is a self-contained
//! `harness = false` binary with wall-clock timing instead of criterion.

use std::hint::black_box;
use std::time::Instant;

use scis_imputers::{AdversarialImputer, GainImputer, GinnImputer, TrainConfig};
use scis_nn::Adam;
use scis_ot::{ms_loss_grad, solve, AccelContext, EscalationPolicy, SinkhornOptions, Start};
use scis_tensor::ops::{gemm, pairwise_sq_dists, Op};
use scis_tensor::{ExecPolicy, Matrix, Precision, Rng64};

/// Times `body` over `iters` runs after one warm-up, printing mean per-run.
fn bench<R>(name: &str, iters: usize, mut body: impl FnMut() -> R) {
    black_box(body());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    let (value, unit) = if mean >= 1e-3 {
        (mean * 1e3, "ms")
    } else {
        (mean * 1e6, "µs")
    };
    println!("{name:<32} {value:>10.3} {unit}/iter  ({iters} iters)");
}

fn bench_sinkhorn() {
    for &n in &[32usize, 64, 128] {
        let mut rng = Rng64::seed_from_u64(1);
        let cost = Matrix::from_fn(n, n, |_, _| rng.uniform());
        let opts = SinkhornOptions {
            lambda: 0.1,
            max_iters: 200,
            tol: 1e-8,
            ..Default::default()
        };
        bench(&format!("sinkhorn_solve/{n}"), 20, || {
            solve(
                black_box(&cost),
                None,
                Start::Cold,
                &opts,
                &EscalationPolicy::none(),
            )
        });
    }
}

fn bench_ms_gradient() {
    for &(n, d) in &[(64usize, 8usize), (128, 8), (128, 32)] {
        let mut rng = Rng64::seed_from_u64(2);
        let x = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let xbar = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, d, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let opts = SinkhornOptions {
            lambda: 0.1,
            max_iters: 100,
            tol: 1e-7,
            ..Default::default()
        };
        let (none, ctx) = (EscalationPolicy::none(), AccelContext::plain());
        bench(&format!("ms_loss_grad/{n}x{d}"), 10, || {
            ms_loss_grad(&xbar, &x, &mask, &opts, &none, &ctx, None)
        });
    }
}

fn bench_gain_step() {
    for &d in &[8usize, 32] {
        let mut rng = Rng64::seed_from_u64(3);
        let n = 128;
        let x = Matrix::from_fn(n, d, |_, _| rng.uniform());
        let mask = Matrix::from_fn(n, d, |_, _| if rng.bernoulli(0.7) { 1.0 } else { 0.0 });
        let mut gain = GainImputer::new(TrainConfig::default());
        gain.init_networks(d, &mut rng);
        let mut opt_g = Adam::new(0.001);
        let mut opt_d = Adam::new(0.001);
        bench(&format!("gain_adversarial_step/{d}"), 20, || {
            gain.train_batch(&x, &mask, &mut opt_g, &mut opt_d, &mut rng)
        });
    }
}

fn bench_par_kernels() {
    let n = 512;
    let mut rng = Rng64::seed_from_u64(5);
    let a = Matrix::from_fn(n, n, |_, _| rng.uniform());
    let b = Matrix::from_fn(n, n, |_, _| rng.uniform());
    let product = |exec| gemm(black_box(&a), Op::Nn, black_box(&b), exec, Precision::F64);
    for &(label, exec) in &[
        ("serial", ExecPolicy::Serial),
        ("4 threads", ExecPolicy::threads(4)),
    ] {
        bench(&format!("matmul/{n} ({label})"), 5, || product(exec));
        bench(&format!("pairwise_sq_dists/{n} ({label})"), 5, || {
            pairwise_sq_dists(black_box(&a), black_box(&b), exec)
        });
    }
    // the determinism contract the policies promise
    assert_eq!(product(ExecPolicy::Serial), product(ExecPolicy::threads(4)));
    assert_eq!(
        pairwise_sq_dists(&a, &b, ExecPolicy::Serial),
        pairwise_sq_dists(&a, &b, ExecPolicy::threads(4)),
    );
}

fn bench_ginn_graph() {
    for &n in &[500usize, 1000, 2000] {
        let mut rng = Rng64::seed_from_u64(4);
        let x = Matrix::from_fn(n, 8, |_, _| rng.uniform());
        bench(&format!("ginn_graph_build/{n}"), 5, || {
            GinnImputer::build_graph(black_box(&x), 5)
        });
    }
}

fn main() {
    bench_sinkhorn();
    bench_ms_gradient();
    bench_gain_step();
    bench_par_kernels();
    bench_ginn_graph();
}
