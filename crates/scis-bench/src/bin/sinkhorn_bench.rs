//! Sinkhorn hot-path benchmark: measures what the acceleration layer
//! actually buys and writes `bench_results/BENCH_sinkhorn.json`.
//!
//! ```sh
//! cargo run -p scis-bench --release --bin sinkhorn_bench
//! SCIS_SINKHORN_BENCH_ROWS=200 SCIS_SINKHORN_BENCH_EPOCHS=8 \
//!     cargo run -p scis-bench --release --bin sinkhorn_bench
//! ```
//!
//! Three measurements:
//!
//! 1. **solver** — one masked-batch transport problem solved cold, then the
//!    slightly-perturbed next-epoch problem solved cold vs warm-started
//!    from the previous duals. Reports both iteration counts and the
//!    max-abs plan difference (the warm solve must land on the same plan
//!    within the solver tolerance).
//! 2. **cost_kernel** — the loop kernel (`masked_sq_cost_with`) vs the
//!    decomposed GEMM kernel (cached `MaskedRows` +
//!    `masked_sq_cost_decomposed`) on the same batch, with the max-abs
//!    entry difference between the two cost matrices.
//! 3. **training** — a full seeded DIM training run with the dual cache off
//!    vs on: total `sinkhorn_iterations` from telemetry (the headline
//!    ratio), warm-start hits, the estimated sweeps saved, final losses,
//!    and the max-abs difference between the two imputed tables (reported
//!    honestly — warm-started solves agree within tolerance, not bitwise,
//!    so the trained models differ slightly).

use scis_core::dim::{train_dim_cached, AccelConfig, DimConfig};
use scis_core::{GuardConfig, GuardStats, TrainPhase};
use scis_imputers::traits::impute_with_generator;
use scis_imputers::{GainImputer, TrainConfig};
use scis_ot::{
    masked_sq_cost_decomposed, masked_sq_cost_with, sinkhorn_uniform, try_sinkhorn_warm, DualCache,
    MaskedRows, SinkhornOptions,
};
use scis_telemetry::{Counter, Telemetry};
use scis_tensor::{ExecPolicy, Matrix, Rng64};
use std::hint::black_box;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Mean seconds per call after one warm-up run.
fn time<R>(iters: usize, mut body: impl FnMut() -> R) -> f64 {
    black_box(body());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Low-rank correlated table: realistic cost structure for the solver.
fn correlated_table(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::seed_from_u64(seed);
    Matrix::from_fn(n, d, |i, j| {
        let _ = i;
        let t = rng.uniform();
        (0.6 * t + 0.2 * (j as f64 / d as f64) + rng.normal_with(0.0, 0.05)).clamp(0.0, 1.0)
    })
}

fn main() {
    let rows = env_usize("SCIS_SINKHORN_BENCH_ROWS", 300);
    let d = env_usize("SCIS_SINKHORN_BENCH_FEATURES", 8);
    let epochs = env_usize("SCIS_SINKHORN_BENCH_EPOCHS", 60);
    // full-batch by default: every epoch re-solves the same row set, which
    // is where epoch-to-epoch warm-starting pays off most. Mini-batch
    // configs (set SCIS_SINKHORN_BENCH_BATCH < rows) still warm-start via
    // the row-keyed cache, but duals composed across different batch
    // compositions are a weaker init and the savings shrink accordingly.
    let batch = env_usize("SCIS_SINKHORN_BENCH_BATCH", rows).min(rows);
    let kernel_iters = env_usize("SCIS_SINKHORN_BENCH_KERNEL_ITERS", 10);

    // ---- 1. solver: cold vs warm on consecutive-epoch problems ----------
    let mut rng = Rng64::seed_from_u64(11);
    let x = correlated_table(batch, d, 12);
    let m = Matrix::from_fn(batch, d, |_, _| if rng.bernoulli(0.75) { 1.0 } else { 0.0 });
    let xbar = x.map(|v| (v + 0.08).clamp(0.0, 1.0));
    let cost0 = masked_sq_cost_with(&xbar, &m, &x, &m, ExecPolicy::Serial);
    // λ relative to the cost scale, exactly as DIM training resolves it
    let opts = SinkhornOptions::default()
        .lambda(0.1 * cost0.mean())
        .max_iters(5000)
        .tol(1e-8)
        .exec(ExecPolicy::Serial);
    let r0 = sinkhorn_uniform(&cost0, &opts);
    // "next epoch": the generator moved one optimizer step, the data side
    // did not (perturbation sized like an Adam step's output movement)
    let xbar2 = xbar.map(|v| (v - 0.002).clamp(0.0, 1.0));
    let cost1 = masked_sq_cost_with(&xbar2, &m, &x, &m, ExecPolicy::Serial);
    let cold = sinkhorn_uniform(&cost1, &opts);
    let ua = vec![1.0 / batch as f64; batch];
    let warm = try_sinkhorn_warm(&cost1, &ua, &ua, r0.f.clone(), r0.g.clone(), &opts)
        .expect("warm solve rejected");
    let plan_diff = cold
        .plan(&cost1)
        .as_slice()
        .iter()
        .zip(warm.plan(&cost1).as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "solver/{batch}: cold {} iters, warm {} iters, plan max|Δ| {plan_diff:.2e}",
        cold.iterations, warm.iterations
    );

    // ---- 1b. sweep precision: default f64/libm vs f32 + fast_exp ---------
    // Same solve, opt-in compute mode: f32 cost storage, reciprocal-λ
    // multiply, polynomial exp in the sweeps. The plan difference is the
    // honest price (input rounding at ~1e-7 relative, solves still converge
    // to the same tolerance).
    let sweep_iters = env_usize("SCIS_SINKHORN_BENCH_SWEEP_ITERS", 3);
    let opts32 = opts.clone().precision(scis_tensor::Precision::F32);
    let sweep_f64_s = time(sweep_iters, || sinkhorn_uniform(&cost0, &opts));
    let sweep_f32_s = time(sweep_iters, || sinkhorn_uniform(&cost0, &opts32));
    let r32 = sinkhorn_uniform(&cost0, &opts32);
    let sweep_plan_diff = r0
        .plan(&cost0)
        .as_slice()
        .iter()
        .zip(r32.plan(&cost0).as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let sweep_speedup = sweep_f64_s / sweep_f32_s.max(1e-12);
    println!(
        "sweep_f32/{batch}: f64 {sweep_f64_s:.6}s, f32 {sweep_f32_s:.6}s \
         ({sweep_speedup:.2}x), plan max|Δ| {sweep_plan_diff:.2e}"
    );

    // ---- 2. cost kernel: loop vs decomposed GEMM -------------------------
    // Measured at a wide feature count (its target regime): the GEMM's
    // multi-accumulator inner product beats the subtract-square loop when
    // the O(n²·d) dot products dominate, while at a handful of features the
    // O(n²) assembly pass eats the gain — which is why `decomposed_cost`
    // is a config flag rather than the default.
    let kn = env_usize("SCIS_SINKHORN_BENCH_KERNEL_ROWS", 600);
    let kd = env_usize("SCIS_SINKHORN_BENCH_KERNEL_FEATURES", 128);
    let mut krng = Rng64::seed_from_u64(31);
    let kx = correlated_table(kn, kd, 32);
    let km = Matrix::from_fn(kn, kd, |_, _| if krng.bernoulli(0.75) { 1.0 } else { 0.0 });
    let kxbar = kx.map(|v| (v + 0.05).clamp(0.0, 1.0));
    let loop_s = time(kernel_iters, || {
        masked_sq_cost_with(&kxbar, &km, &kx, &km, ExecPolicy::Serial)
    });
    let data_side = MaskedRows::new(&kx, &km); // cached across epochs in training
    let gemm_s = time(kernel_iters, || {
        let gen_side = MaskedRows::new(&kxbar, &km);
        masked_sq_cost_decomposed(&gen_side, &data_side, ExecPolicy::Serial)
    });
    let cost_loop = masked_sq_cost_with(&kxbar, &km, &kx, &km, ExecPolicy::Serial);
    let gen_side = MaskedRows::new(&kxbar, &km);
    let cost_gemm = masked_sq_cost_decomposed(&gen_side, &data_side, ExecPolicy::Serial);
    let cost_diff = cost_loop
        .as_slice()
        .iter()
        .zip(cost_gemm.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let kernel_speedup = loop_s / gemm_s.max(1e-12);
    println!(
        "cost_kernel/{kn}x{kd}: loop {loop_s:.6}s, gemm {gemm_s:.6}s ({kernel_speedup:.2}x), max|Δ| {cost_diff:.2e}"
    );

    // ---- 3. training: dual cache off vs on, same seeds -------------------
    let complete = correlated_table(rows, d, 21);
    let mut rng = Rng64::seed_from_u64(22);
    let ds = scis_data::missing::inject_mcar(&complete, 0.25, &mut rng);
    let mut base_cfg = DimConfig::default()
        .train(TrainConfig {
            epochs,
            batch_size: batch,
            learning_rate: 0.005,
            dropout: 0.0,
        })
        .exec(ExecPolicy::Serial);
    // budget high enough that solves converge in the *plain* attempt: with
    // the default 200-sweep cap most solves fail over to the ε-scaling
    // ladder, whose cold restarts would mask exactly the effect this bench
    // measures
    base_cfg.max_sinkhorn_iters = env_usize("SCIS_SINKHORN_BENCH_MAX_ITERS", 3000);

    let run = |accel: AccelConfig| {
        let cfg = base_cfg.accel(accel);
        let mut gain = GainImputer::new(cfg.train);
        let mut stats = GuardStats::default();
        let tel = Telemetry::collecting();
        let cache = if accel.warm_start {
            DualCache::enabled()
        } else {
            DualCache::off()
        };
        let mut rng = Rng64::seed_from_u64(23);
        let start = Instant::now();
        let report = train_dim_cached(
            &mut gain,
            &ds,
            &cfg,
            &GuardConfig::default(),
            TrainPhase::Initial,
            &mut stats,
            &tel,
            &cache,
            &mut rng,
        )
        .expect("training failed");
        let train_s = start.elapsed().as_secs_f64();
        let out = impute_with_generator(&mut gain, &ds, &mut rng);
        (report, tel, out, train_s)
    };

    let (cold_report, cold_tel, cold_out, cold_s) = run(AccelConfig::default());
    let (warm_report, warm_tel, warm_out, warm_s) = run(AccelConfig::default().warm_start(true));

    let cold_iters = cold_tel.counter(Counter::SinkhornIterations);
    let warm_iters = warm_tel.counter(Counter::SinkhornIterations);
    for (name, tel) in [("cold", &cold_tel), ("warm", &warm_tel)] {
        println!(
            "  {name}: solves {}, converged {}, escalations {}, unconverged {}",
            tel.counter(Counter::SinkhornSolves),
            tel.counter(Counter::SinkhornConverged),
            tel.counter(Counter::SinkhornEscalations),
            tel.counter(Counter::SinkhornUnconverged),
        );
    }
    let warm_hits = warm_tel.counter(Counter::WarmStartHits);
    let iters_saved = warm_tel.counter(Counter::ItersSaved);
    let iter_ratio = cold_iters as f64 / warm_iters.max(1) as f64;
    let impute_diff = cold_out
        .as_slice()
        .iter()
        .zip(warm_out.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        warm_iters <= cold_iters,
        "warm-start increased total iterations: {warm_iters} > {cold_iters}"
    );
    println!(
        "training/{rows}x{d}x{epochs}: cold {cold_iters} iters ({cold_s:.2}s), \
         warm {warm_iters} iters ({warm_s:.2}s) — {iter_ratio:.2}x fewer, \
         {warm_hits} warm hits, imputation max|Δ| {impute_diff:.2e}"
    );

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"config\": {{\n    \"rows\": {rows},\n    \
         \"features\": {d},\n    \"epochs\": {epochs},\n    \"batch_size\": {batch}\n  }},\n  \
         \"solver\": {{\n    \"cold_iterations\": {},\n    \"warm_iterations\": {},\n    \
         \"plan_max_abs_diff\": {plan_diff:e}\n  }},\n  \
         \"sweep_f32\": {{\n    \"f64_s\": {sweep_f64_s:.6},\n    \"f32_s\": {sweep_f32_s:.6},\n    \
         \"speedup\": {sweep_speedup:.3},\n    \"plan_max_abs_diff\": {sweep_plan_diff:e}\n  }},\n  \
         \"cost_kernel\": {{\n    \"rows\": {kn},\n    \"features\": {kd},\n    \
         \"loop_s\": {loop_s:.6},\n    \"gemm_s\": {gemm_s:.6},\n    \
         \"speedup\": {kernel_speedup:.3},\n    \"max_abs_diff\": {cost_diff:e}\n  }},\n  \
         \"training\": {{\n    \"cold_iterations\": {cold_iters},\n    \
         \"warm_iterations\": {warm_iters},\n    \"iteration_ratio\": {iter_ratio:.3},\n    \
         \"warm_start_hits\": {warm_hits},\n    \"iters_saved_estimate\": {iters_saved},\n    \
         \"cold_train_s\": {cold_s:.3},\n    \"warm_train_s\": {warm_s:.3},\n    \
         \"cold_final_loss\": {:e},\n    \"warm_final_loss\": {:e},\n    \
         \"imputation_max_abs_diff\": {impute_diff:e}\n  }}\n}}\n",
        cold.iterations,
        warm.iterations,
        cold_report.final_loss(),
        warm_report.final_loss(),
    );
    std::fs::create_dir_all("bench_results").expect("creating bench_results/");
    std::fs::write("bench_results/BENCH_sinkhorn.json", &json)
        .expect("writing BENCH_sinkhorn.json");
    println!("wrote bench_results/BENCH_sinkhorn.json");
}
