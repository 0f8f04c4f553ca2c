//! Figure 3 — effect of the user-tolerated error bound ε on SCIS-GAIN:
//! RMSE vs the user-tolerated error (R^u_mse + ε) and the plain-GAIN error
//! (R^o_mse + ε), plus the sample rates R_1 = n0/N and R_2 = n*/N.
//!
//! ```sh
//! cargo run -p scis-bench --release --bin fig3
//! ```

use scis_bench::harness::{finish_process, recipes_from_env, run_with_budget, BenchConfig};
use scis_core::dim::{train_dim, DimConfig, TrainRun};
use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::GuardStats;
use scis_data::metrics::make_holdout;
use scis_data::normalize::MinMaxScaler;
use scis_data::CovidRecipe;
use scis_imputers::traits::impute_with_generator;
use scis_imputers::{GainImputer, Imputer};
use scis_tensor::Rng64;

fn main() {
    let cfg = BenchConfig::from_env(0.1, 1, 900);
    println!(
        "Figure 3 reproduction — scale {}, {}s budget, {} epochs",
        cfg.scale,
        cfg.budget.as_secs(),
        cfg.epochs
    );

    let default = [
        CovidRecipe::Trial,
        CovidRecipe::Emergency,
        CovidRecipe::Response,
    ];
    for recipe in recipes_from_env(&default) {
        let scale = cfg
            .scale
            .min(cfg.max_rows as f64 / recipe.full_samples() as f64)
            .min(1.0);
        let inst = recipe.generate(scale, 88);
        let (norm, _) = MinMaxScaler::fit_transform_dataset(&inst.dataset);
        let mut rng = Rng64::seed_from_u64(600);
        let (train_ds, holdout) = make_holdout(&norm, cfg.holdout_frac, &mut rng);
        let train = cfg.train_config();
        let n0 = inst.n0.min(train_ds.n_samples() / 3);
        println!(
            "\n[{}] {} x {}, n0 = {} (R_1 = {:.2}%)",
            recipe.name(),
            train_ds.n_samples(),
            train_ds.n_features(),
            n0,
            n0 as f64 / train_ds.n_samples() as f64 * 100.0
        );

        // reference errors: R^o_mse (native GAIN on full data) and
        // R^u_mse (DIM-GAIN on full data)
        let ds_o = train_ds.clone();
        let mut rng_o = rng.fork();
        let r_o = run_with_budget(cfg.budget, move || {
            GainImputer::new(train).impute(&ds_o, &mut rng_o)
        })
        .map(|m| holdout.rmse(&m));
        let ds_u = train_ds.clone();
        let mut rng_u = rng.fork();
        let r_u = run_with_budget(cfg.budget, move || {
            let mut gain = GainImputer::new(train);
            let dim = DimConfig {
                train,
                ..Default::default()
            };
            let (run, mut stats) = (TrainRun::default(), GuardStats::default());
            train_dim(&mut gain, &ds_u, &dim, &run, &mut stats, &mut rng_u).expect("dim training");
            impute_with_generator(&mut gain, &ds_u, &mut rng_u)
        })
        .map(|m| holdout.rmse(&m));
        match (r_o, r_u) {
            (Some(o), Some(u)) => {
                println!("R^o_mse (GAIN, full data)     = {:.4}", o);
                println!("R^u_mse (DIM-GAIN, full data) = {:.4}", u);
                println!(
                    "{:>8} {:>12} {:>12} {:>12} {:>9} {:>9}",
                    "eps", "SCIS rmse", "R^u+eps", "R^o+eps", "R_2 (%)", "time (s)"
                );
                println!("{}", "-".repeat(68));
                for &eps in &[0.001, 0.003, 0.005, 0.007, 0.009] {
                    let ds_s = train_ds.clone();
                    let mut rng_s = rng.fork();
                    let t = std::time::Instant::now();
                    let res = run_with_budget(cfg.budget, move || {
                        let mut config = ScisConfig {
                            dim: DimConfig {
                                train,
                                ..Default::default()
                            },
                            ..Default::default()
                        };
                        config.sse.epsilon = eps;
                        let mut gain = GainImputer::new(train);
                        let outcome = Scis::new(config)
                            .try_run(&mut gain, &ds_s, n0, &mut rng_s)
                            .expect("pipeline run");
                        {
                            let rt = outcome.training_sample_rate();
                            (outcome.imputed, rt)
                        }
                    });
                    match res {
                        Some((imputed, r2)) => println!(
                            "{:>8.3} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>9.2}",
                            eps,
                            holdout.rmse(&imputed),
                            u + eps,
                            o + eps,
                            r2 * 100.0,
                            t.elapsed().as_secs_f64()
                        ),
                        None => println!("{:>8.3} — (budget exceeded)", eps),
                    }
                }
            }
            _ => println!("reference runs exceeded the budget — rerun with BUDGET=…"),
        }
    }
    finish_process();
}
