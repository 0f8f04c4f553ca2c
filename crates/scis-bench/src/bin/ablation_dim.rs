//! Design-choice ablation (beyond the paper's tables): DIM variants.
//!
//! Compares, on one recipe:
//! * GAIN (native JS/BCE loss) — the baseline;
//! * DIM data-space — MS divergence computed on masked batches (our
//!   default, used by every table);
//! * DIM critic — §IV.B taken literally: an embedding network φ trained to
//!   *maximize* the MS divergence while the generator minimizes it;
//! * DIM λ sweep — sensitivity of the data-space variant to the relative
//!   entropic regularization factor.
//!
//! ```sh
//! cargo run -p scis-bench --release --bin ablation_dim
//! ```

use scis_bench::harness::{finish_process, run_with_budget, BenchConfig};
use scis_core::dim::{train_dim, CriticConfig, DimConfig, GenerativeLoss, LambdaMode, TrainRun};
use scis_core::GuardStats;
use scis_data::metrics::make_holdout;
use scis_data::normalize::MinMaxScaler;
use scis_data::CovidRecipe;
use scis_imputers::traits::impute_with_generator;
use scis_imputers::{GainImputer, Imputer};
use scis_tensor::Rng64;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env(0.1, 1, 900);
    println!(
        "DIM ablation — scale {}, {}s budget, {} epochs\n",
        cfg.scale,
        cfg.budget.as_secs(),
        cfg.epochs
    );
    let scale = cfg
        .scale
        .min(cfg.max_rows as f64 / CovidRecipe::Trial.full_samples() as f64)
        .min(1.0);
    let inst = CovidRecipe::Trial.generate(scale, 55);
    let (norm, _) = MinMaxScaler::fit_transform_dataset(&inst.dataset);
    let mut rng = Rng64::seed_from_u64(55);
    let (train_ds, holdout) = make_holdout(&norm, cfg.holdout_frac, &mut rng);
    let train = cfg.train_config();
    println!(
        "[{}] {} x {}, {} eval cells",
        CovidRecipe::Trial.name(),
        train_ds.n_samples(),
        train_ds.n_features(),
        holdout.len()
    );
    println!("{:<28} {:>10} {:>10}", "Variant", "RMSE", "time (s)");
    println!("{}", "-".repeat(50));

    // GAIN native
    {
        let ds = train_ds.clone();
        let mut r = rng.fork();
        let t = Instant::now();
        let out = run_with_budget(cfg.budget, move || {
            GainImputer::new(train).impute(&ds, &mut r)
        });
        report(
            "GAIN (native JS)",
            out.map(|m| holdout.rmse(&m)),
            t.elapsed().as_secs_f64(),
        );
    }

    // DIM variants
    let variants: Vec<(String, DimConfig)> = vec![
        (
            "DIM data-space (rel 0.1)".into(),
            DimConfig {
                train,
                ..Default::default()
            },
        ),
        (
            "DIM critic".into(),
            DimConfig {
                train,
                critic: Some(CriticConfig::default()),
                ..Default::default()
            },
        ),
        (
            "DIM data-space (rel 0.02)".into(),
            DimConfig {
                train,
                lambda: LambdaMode::Relative(0.02),
                ..Default::default()
            },
        ),
        (
            "DIM data-space (rel 0.5)".into(),
            DimConfig {
                train,
                lambda: LambdaMode::Relative(0.5),
                ..Default::default()
            },
        ),
        (
            "DIM data-space (abs 130)".into(),
            DimConfig {
                train,
                lambda: LambdaMode::Absolute(130.0),
                ..Default::default()
            },
        ),
        (
            "DIM sliced-Wasserstein".into(),
            DimConfig {
                train,
                loss: GenerativeLoss::SlicedWasserstein { n_projections: 32 },
                ..Default::default()
            },
        ),
    ];
    for (name, dim) in variants {
        let ds = train_ds.clone();
        let mut r = rng.fork();
        let t = Instant::now();
        let out = run_with_budget(cfg.budget, move || {
            let mut gain = GainImputer::new(train);
            let (run, mut stats) = (TrainRun::default(), GuardStats::default());
            train_dim(&mut gain, &ds, &dim, &run, &mut stats, &mut r).expect("dim training");
            impute_with_generator(&mut gain, &ds, &mut r)
        });
        report(
            &name,
            out.map(|m| holdout.rmse(&m)),
            t.elapsed().as_secs_f64(),
        );
    }
    finish_process();
}

fn report(name: &str, rmse: Option<f64>, secs: f64) {
    match rmse {
        Some(r) => println!("{:<28} {:>10.4} {:>10.2}", name, r, secs),
        None => println!("{:<28} {:>10} {:>10}", name, "—", "—"),
    }
}
