//! Determinism contract of the execution engine: every parallel path must
//! be *bit-identical* to serial execution, so an [`ExecPolicy`] choice can
//! never change a result — only its wall-clock time.
//!
//! Covers the three layers individually (Sinkhorn sweeps above the
//! parallelism threshold, MLP forward/backward over parallel GEMMs) and the
//! whole Algorithm-1 pipeline end to end (imputed matrix, `n*`, and the
//! fault-tolerance anomaly record all equal under Serial vs `threads(4)`).

use scis_data::missing::inject_mcar;
use scis_repro::ot::{solve, AccelContext, EscalationPolicy, SinkhornOptions, Start};
use scis_repro::prelude::*;

fn correlated_table(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut m = Matrix::zeros(n, 4);
    for i in 0..n {
        let t = rng.uniform();
        m[(i, 0)] = t;
        m[(i, 1)] = (0.8 * t + 0.1 + rng.normal_with(0.0, 0.02)).clamp(0.0, 1.0);
        m[(i, 2)] = (1.0 - t + rng.normal_with(0.0, 0.02)).clamp(0.0, 1.0);
        m[(i, 3)] = (0.5 * t + 0.25 + rng.normal_with(0.0, 0.02)).clamp(0.0, 1.0);
    }
    m
}

/// One full seeded Algorithm-1 run under the given policy and acceleration
/// setting.
fn run_pipeline_with(exec: ExecPolicy, accel: AccelConfig) -> (Matrix, usize, RunAnomalies) {
    let complete = correlated_table(400, 11);
    let mut rng = Rng64::seed_from_u64(12);
    let ds = inject_mcar(&complete, 0.25, &mut rng);
    let cfg = ScisConfig::default()
        .dim(
            DimConfig::default().train(
                TrainConfig::default()
                    .epochs(8)
                    .batch_size(64)
                    .learning_rate(0.005)
                    .dropout(0.0),
            ),
        )
        .epsilon(0.02)
        .exec(exec)
        .accel(accel);
    let mut gain = GainImputer::new(cfg.dim.train);
    let outcome = Scis::new(cfg)
        .try_run(&mut gain, &ds, 80, &mut rng)
        .expect("pipeline run");
    (outcome.imputed, outcome.n_star, outcome.anomalies)
}

/// One full seeded Algorithm-1 run under the given policy.
fn run_pipeline(exec: ExecPolicy) -> (Matrix, usize, RunAnomalies) {
    run_pipeline_with(exec, AccelConfig::default())
}

#[test]
fn full_pipeline_is_bit_identical_serial_vs_threads() {
    let (imputed_s, n_star_s, anomalies_s) = run_pipeline(ExecPolicy::Serial);
    let (imputed_p, n_star_p, anomalies_p) = run_pipeline(ExecPolicy::threads(4));
    assert_eq!(imputed_s, imputed_p, "imputed matrices diverged");
    assert_eq!(n_star_s, n_star_p, "SSE n* diverged");
    assert_eq!(anomalies_s, anomalies_p, "anomaly records diverged");
}

#[test]
fn accelerated_pipeline_is_bit_identical_serial_vs_threads() {
    // The hot-path accelerations (warm-start dual cache + decomposed cost
    // kernel) must obey the same determinism contract as everything else:
    // an ExecPolicy choice never changes a result.
    let (imputed_s, n_star_s, anomalies_s) =
        run_pipeline_with(ExecPolicy::Serial, AccelConfig::all());
    let (imputed_p, n_star_p, anomalies_p) =
        run_pipeline_with(ExecPolicy::threads(4), AccelConfig::all());
    assert_eq!(
        imputed_s, imputed_p,
        "accelerated imputed matrices diverged"
    );
    assert_eq!(n_star_s, n_star_p, "accelerated SSE n* diverged");
    assert_eq!(
        anomalies_s, anomalies_p,
        "accelerated anomaly records diverged"
    );
}

#[test]
fn f32_pipeline_is_bit_identical_serial_vs_threads() {
    // The f32 compute mode rounds kernel operands once, up front; every
    // accumulation chain stays f64 and confined to one worker, so the mode
    // must obey the same determinism contract: thread count never matters.
    let (imputed_s, n_star_s, anomalies_s) =
        run_pipeline_with(ExecPolicy::Serial, AccelConfig::all_f32());
    let (imputed_p, n_star_p, anomalies_p) =
        run_pipeline_with(ExecPolicy::threads(4), AccelConfig::all_f32());
    assert_eq!(imputed_s, imputed_p, "f32-mode imputed matrices diverged");
    assert_eq!(n_star_s, n_star_p, "f32-mode SSE n* diverged");
    assert_eq!(
        anomalies_s, anomalies_p,
        "f32-mode anomaly records diverged"
    );
}

#[test]
fn f32_pipeline_tracks_f64_quality() {
    // f32 operand rounding perturbs each kernel input by ~1e-7 relative;
    // the solves still converge to the same tolerance, so the imputation
    // must agree with the full-precision accelerated run far below any
    // difference that could move the reported RMSE.
    let complete = correlated_table(400, 11);
    let (imputed_64, _, _) = run_pipeline_with(ExecPolicy::Serial, AccelConfig::all());
    let (imputed_32, _, _) = run_pipeline_with(ExecPolicy::Serial, AccelConfig::all_f32());
    assert!(imputed_32.as_slice().iter().all(|v| v.is_finite()));
    let rmse = |imp: &Matrix| {
        let mut sq = 0.0;
        let cells = (imp.rows() * imp.cols()) as f64;
        for (a, b) in imp.as_slice().iter().zip(complete.as_slice()) {
            sq += (a - b) * (a - b);
        }
        (sq / cells).sqrt()
    };
    let delta = (rmse(&imputed_64) - rmse(&imputed_32)).abs();
    assert!(
        delta < 5e-3,
        "f32 mode moved the reconstruction RMSE by {delta:.3e}"
    );
}

#[test]
fn warm_start_cache_preserves_pipeline_quality() {
    // Warm-starting changes how many Sinkhorn iterations each solve burns,
    // not which transport plan it converges to, so the end-to-end pipeline
    // must land on essentially the same imputation with the cache on or off.
    let (imputed_off, n_star_off, anomalies_off) = run_pipeline(ExecPolicy::Serial);
    let (imputed_on, n_star_on, anomalies_on) =
        run_pipeline_with(ExecPolicy::Serial, AccelConfig::default().warm_start(true));

    // Solver-effort counters (escalations) legitimately drop with the cache
    // on — that is the feature — but health outcomes must not change.
    assert!(
        anomalies_on.sinkhorn_escalations <= anomalies_off.sinkhorn_escalations,
        "cache increased escalations: {} -> {}",
        anomalies_off.sinkhorn_escalations,
        anomalies_on.sinkhorn_escalations
    );
    assert_eq!(anomalies_off.rollbacks, anomalies_on.rollbacks);
    assert_eq!(anomalies_off.mean_fallback, anomalies_on.mean_fallback);
    assert_eq!(anomalies_off.retrain_failed, anomalies_on.retrain_failed);
    assert_eq!(
        anomalies_off.non_finite_cells_patched,
        anomalies_on.non_finite_cells_patched
    );
    assert!(imputed_on.as_slice().iter().all(|v| v.is_finite()));
    let max_diff = imputed_off
        .as_slice()
        .iter()
        .zip(imputed_on.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    // Data lives in [0, 1]; solves share the convergence tolerance, so the
    // imputations must agree far below any visible difference.
    assert!(
        max_diff < 5e-2,
        "cache on/off imputations diverged: max |diff| = {max_diff:.3e}"
    );
    let spread = (n_star_off as f64 - n_star_on as f64).abs();
    assert!(
        spread <= 40.0,
        "cache on/off n* diverged: {n_star_off} vs {n_star_on}"
    );
}

#[test]
fn blocked_gemm_matches_naive_reference_at_default_settings() {
    // The register-tiled kernels behind every default-path matmul must be a
    // pure scheduling change: same per-element accumulation chains as the
    // naive reference loops, hence bit-identical output.
    use scis_repro::tensor::ops::{gemm, gemm_naive, Op};
    use scis_repro::tensor::Precision;

    let blocked = |a: &Matrix, op, b: &Matrix| gemm(a, op, b, ExecPolicy::Serial, Precision::F64);
    let mut rng = Rng64::seed_from_u64(91);
    for &(m, k, n) in &[(5usize, 7usize, 9usize), (64, 32, 48), (33, 31, 29)] {
        let a = Matrix::from_fn(m, k, |_, _| rng.normal());
        let b = Matrix::from_fn(k, n, |_, _| rng.normal());
        assert_eq!(blocked(&a, Op::Nn, &b), gemm_naive(&a, Op::Nn, &b));
        let bt = Matrix::from_fn(n, k, |_, _| rng.normal());
        assert_eq!(blocked(&a, Op::Nt, &bt), gemm_naive(&a, Op::Nt, &bt));
        let at = Matrix::from_fn(k, m, |_, _| rng.normal());
        assert_eq!(blocked(&at, Op::Tn, &b), gemm_naive(&at, Op::Tn, &b));
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sinkhorn_sweeps_are_bit_identical_above_threshold() {
    use scis_repro::tensor::Precision;

    // 200×200 = 40_000 cells clears the parallelism threshold of the solver
    // and of the streamed gradient
    let mut rng = Rng64::seed_from_u64(21);
    let a = Matrix::from_fn(200, 6, |_, _| rng.uniform());
    let b = Matrix::from_fn(200, 6, |_, _| rng.uniform());
    let ones = Matrix::ones(200, 6);
    let mask = Matrix::from_fn(200, 6, |_, _| if rng.bernoulli(0.75) { 1.0 } else { 0.0 });
    for precision in [Precision::F64, Precision::F32] {
        let base = SinkhornOptions::default()
            .lambda(0.05)
            .max_iters(300)
            .precision(precision);

        let cost_s = scis_repro::ot::masked_sq_cost_with(&a, &ones, &b, &ones, ExecPolicy::Serial);
        let (none, plain) = (EscalationPolicy::none(), AccelContext::plain());
        let serial_opts = base.clone().exec(ExecPolicy::Serial);
        let (serial, _) = solve(&cost_s, None, Start::Cold, &serial_opts, &none).unwrap();
        let plan_s = serial.plan(&cost_s);
        let (loss_s, grad_s, _) =
            scis_repro::ot::ms_loss_grad(&a, &b, &mask, &serial_opts, &none, &plain, None).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let exec = ExecPolicy::threads(threads);
            let cost_p = scis_repro::ot::masked_sq_cost_with(&a, &ones, &b, &ones, exec);
            assert_eq!(
                cost_s, cost_p,
                "cost matrix diverged at {threads} threads, {precision:?}"
            );
            let par_opts = base.clone().exec(exec);
            let (par, _) = solve(&cost_p, None, Start::Cold, &par_opts, &none).unwrap();
            assert_eq!(
                bits(&serial.f),
                bits(&par.f),
                "f diverged at {threads} threads, {precision:?}"
            );
            assert_eq!(
                bits(&serial.g),
                bits(&par.g),
                "g diverged at {threads} threads, {precision:?}"
            );
            assert_eq!(
                bits(plan_s.as_slice()),
                bits(par.plan(&cost_p).as_slice()),
                "plan diverged at {threads} threads, {precision:?}"
            );
            assert_eq!(
                serial.reg_value.to_bits(),
                par.reg_value.to_bits(),
                "reg_value diverged at {threads} threads, {precision:?}"
            );
            assert_eq!(
                serial.transport_cost.to_bits(),
                par.transport_cost.to_bits(),
                "transport_cost diverged at {threads} threads, {precision:?}"
            );
            assert_eq!(serial.iterations, par.iterations);
            let (loss_p, grad_p, _) =
                scis_repro::ot::ms_loss_grad(&a, &b, &mask, &par_opts, &none, &plain, None)
                    .unwrap();
            assert_eq!(
                loss_s.to_bits(),
                loss_p.to_bits(),
                "loss diverged at {threads} threads, {precision:?}"
            );
            assert_eq!(
                bits(grad_s.as_slice()),
                bits(grad_p.as_slice()),
                "gradient diverged at {threads} threads, {precision:?}"
            );
        }
    }
}

#[test]
fn mlp_forward_and_backward_are_bit_identical() {
    use scis_repro::nn::{Activation, Mlp, Mode};

    // 256×64 batches over 64-wide layers clear the GEMM work threshold
    let build = || {
        let mut rng = Rng64::seed_from_u64(31);
        Mlp::builder(64)
            .dense(64, Activation::Relu)
            .dense(64, Activation::Sigmoid)
            .build(&mut rng)
    };
    let mut rng = Rng64::seed_from_u64(32);
    let x = Matrix::from_fn(256, 64, |_, _| rng.normal());
    let grad_out = Matrix::from_fn(256, 64, |_, _| rng.normal());

    let mut serial = build();
    serial.set_exec(ExecPolicy::Serial);
    let mut eval_rng = Rng64::seed_from_u64(33);
    let out_s = serial.forward(&x, Mode::Eval, &mut eval_rng);
    serial.zero_grad();
    let dx_s = serial.backward(&grad_out);
    let grads_s = serial.grad_vector();

    for threads in [2usize, 4] {
        let mut par = build();
        par.set_exec(ExecPolicy::threads(threads));
        let mut eval_rng = Rng64::seed_from_u64(33);
        let out_p = par.forward(&x, Mode::Eval, &mut eval_rng);
        par.zero_grad();
        let dx_p = par.backward(&grad_out);
        assert_eq!(out_s, out_p, "forward diverged at {threads} threads");
        assert_eq!(dx_s, dx_p, "input gradient diverged at {threads} threads");
        assert_eq!(
            grads_s,
            par.grad_vector(),
            "parameter gradients diverged at {threads} threads"
        );
    }
}

#[test]
fn sse_monte_carlo_fan_out_is_bit_identical() {
    use scis_repro::core::sse::{estimate_min_sample_size, fisher_diagonal};
    use scis_repro::ot::DualCache;

    let complete = correlated_table(300, 41);
    let mut rng = Rng64::seed_from_u64(42);
    let ds = inject_mcar(&complete, 0.3, &mut rng);

    let run = |exec: ExecPolicy| {
        let mut rng = Rng64::seed_from_u64(43);
        let mut gain = GainImputer::new(TrainConfig::fast_test());
        gain.init_networks(4, &mut rng);
        let opts = SinkhornOptions::default().lambda(0.1).max_iters(100);
        let diag = fisher_diagonal(
            &mut gain,
            &ds,
            &opts,
            64,
            &EscalationPolicy::none(),
            &Telemetry::off(),
            &DualCache::off(),
            AccelConfig::default(),
            &mut rng,
        );
        let cfg = SseConfig::default().epsilon(5e-3).exec(exec);
        let res = estimate_min_sample_size(&mut gain, &ds, &diag, 50, 300, &cfg, &mut rng);
        (res.n_star, res.prob_at_n_star, res.probes)
    };
    assert_eq!(run(ExecPolicy::Serial), run(ExecPolicy::threads(4)));
}
