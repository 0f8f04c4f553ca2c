//! Microcalls: single public functions of each layer, timed at a
//! workload's shapes during traced runs. They give per-layer unit costs
//! that the end-to-end run cannot separate from outside the program.

use crate::stats::median;
use crate::trace::Tracer;
use scis_imputers::{AdversarialImputer, GainImputer, TrainConfig};
use scis_nn::Mode;
use scis_ot::{MaskedRows, SinkhornOptions};
use scis_serve::bundle::ModelBundle;
use scis_serve::service::{ImputeRow, ImputeService};
use scis_tensor::{ExecPolicy, Matrix, Precision, Rng64, RunDeadline};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The shapes and solver settings a workload runs with.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Training batch size (the Sinkhorn problem is `batch × batch`).
    pub batch: usize,
    /// Data columns.
    pub cols: usize,
    pub exec: ExecPolicy,
    pub precision: Precision,
    /// Decomposed (GEMM) cost kernel instead of the scalar distance loop.
    pub decomposed_cost: bool,
    pub max_sinkhorn_iters: usize,
}

/// Median seconds per call of `body`, repeated until `budget` is spent
/// (at least three calls, after one untimed warm-up call).
fn time_median<R>(budget: Duration, mut body: impl FnMut() -> R) -> f64 {
    black_box(body());
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        black_box(body());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Runs every microcall at `shape` and returns per-layer metrics. The serve
/// calls use `bundle_path` (a bundle at the workload's width). Each call is
/// recorded as a span under one `microcalls` root.
pub fn run(
    shape: Shape,
    bundle_path: &std::path::Path,
    tracer: &Tracer,
    out: &mut BTreeMap<String, f64>,
) {
    let root = tracer.root("microcalls", "bench");
    let parent = root.id();
    let budget = Duration::from_millis(300);
    let mut rng = Rng64::seed_from_u64(0x006d_6963_726f);
    let (b, d) = (shape.batch, shape.cols);

    // ---- scis-ot: cost build and one solve at batch × batch -------------
    let x = Matrix::from_fn(b, d, |_, _| rng.uniform());
    let xbar = Matrix::from_fn(b, d, |_, _| rng.uniform());
    let mask = Matrix::from_fn(b, d, |_, _| if rng.bernoulli(0.25) { 0.0 } else { 1.0 });
    let build = || {
        if shape.decomposed_cost {
            scis_ot::masked_sq_cost_decomposed_p(
                &MaskedRows::new(&xbar, &mask),
                &MaskedRows::new(&x, &mask),
                shape.exec,
                shape.precision,
            )
        } else {
            scis_ot::masked_sq_cost_with(&xbar, &mask, &x, &mask, shape.exec)
        }
    };
    let cost_s = {
        let _s = tracer.child(parent, "masked_sq_cost", "scis-ot");
        time_median(budget, build)
    };
    let cost = build();
    let opts = SinkhornOptions {
        lambda: (0.1 * cost.mean()).max(1e-6),
        max_iters: shape.max_sinkhorn_iters,
        tol: 1e-8,
        exec: shape.exec,
        deadline: RunDeadline::none(),
        precision: shape.precision,
    };
    let mut iters = 0usize;
    let solve_s = {
        let _s = tracer.child(parent, "try_sinkhorn_uniform", "scis-ot");
        time_median(budget, || {
            let r = scis_ot::try_sinkhorn_uniform(&cost, &opts).expect("finite cost");
            iters = r.iterations;
            r.transport_cost
        })
    };
    out.insert("ot.cost_build_ms".into(), cost_s * 1e3);
    out.insert("ot.solve_ms".into(), solve_s * 1e3);
    out.insert(
        "ot.sweep_ns_per_cell".into(),
        solve_s * 1e9 / (iters.max(1) * b * b) as f64,
    );

    // ---- scis-nn: generator forward + backward at the batch -------------
    let mut gain = GainImputer::new(TrainConfig::default());
    gain.init_networks(d, &mut rng);
    let generator = gain.generator_mut();
    generator.set_exec(shape.exec);
    generator.set_precision(shape.precision);
    let g_in = Matrix::from_fn(b, 2 * d, |_, _| rng.uniform());
    let ones = Matrix::full(b, d, 1.0);
    let fwd_bwd_s = {
        let _s = tracer.child(parent, "mlp.forward+backward", "scis-nn");
        time_median(budget, || {
            let y = generator.forward(&g_in, Mode::Train, &mut rng);
            generator.zero_grad();
            (y, generator.backward(&ones))
        })
    };
    let rows = 256;
    let eval_in = Matrix::from_fn(rows, 2 * d, |_, _| rng.uniform());
    let fwd_s = {
        let _s = tracer.child(parent, "mlp.forward", "scis-nn");
        time_median(budget, || generator.forward(&eval_in, Mode::Eval, &mut rng))
    };
    out.insert("nn.fwd_bwd_ms".into(), fwd_bwd_s * 1e3);
    out.insert("nn.fwd_us_per_row".into(), fwd_s * 1e6 / rows as f64);

    // ---- scis-tensor: the cost-build GEMM shape, serial and 2 threads ----
    let flops = 2.0 * (b * b * d) as f64;
    for (name, exec) in [
        ("tensor.gemm_gflops_serial", ExecPolicy::Serial),
        ("tensor.gemm_gflops_t2", ExecPolicy::threads(2)),
    ] {
        let _s = tracer.child(parent, "matmul_bt_exec_p", "scis-tensor");
        let t = time_median(budget, || {
            scis_tensor::par::matmul_bt_exec_p(&xbar, &x, exec, shape.precision)
        });
        out.insert(name.into(), flops / t / 1e9);
    }
    let dispatch_s = {
        let _s = tracer.child(parent, "exec::for_each_row", "scis-tensor");
        let mut buf = vec![0.0f64; 2];
        time_median(budget, || {
            scis_tensor::exec::for_each_row(&mut buf, 1, 2, |_, row| row[0] += 1.0)
        })
    };
    out.insert("tensor.exec_dispatch_us".into(), dispatch_s * 1e6);

    // ---- scis-serve: bundle load, request parse, impute at 1/16/256 -----
    let load_s = {
        let _s = tracer.child(parent, "ModelBundle::load", "scis-serve");
        time_median(budget, || {
            ModelBundle::load(bundle_path).expect("bundle written by this run")
        })
    };
    out.insert("serve.bundle_load_ms".into(), load_s * 1e3);
    let bundle = ModelBundle::load(bundle_path).expect("bundle written by this run");
    let request_rows: Vec<ImputeRow> = (0..256)
        .map(|_| {
            (0..d)
                .map(|_| rng.bernoulli(0.75).then(|| rng.uniform()))
                .collect()
        })
        .collect();
    let body = crate::serve::request_body(&request_rows[..16]);
    let parse_s = {
        let _s = tracer.child(parent, "json::parse", "scis-serve");
        time_median(budget, || {
            scis_serve::json::parse(&body).expect("valid body")
        })
    };
    out.insert("serve.json_parse_us".into(), parse_s * 1e6);
    let mut service = ImputeService::new(
        bundle,
        ExecPolicy::threads(2),
        scis_telemetry::Telemetry::off(),
    );
    for n in [1usize, 16, 256] {
        let _s = tracer.child(parent, &format!("impute_rows/{n}"), "scis-serve");
        let t = time_median(budget, || service.impute_rows(&request_rows[..n]));
        out.insert(format!("serve.impute_rows_us_{n}"), t * 1e6);
    }
}
