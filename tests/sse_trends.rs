//! Integration tests of the SSE *trends* the paper's figures rely on:
//! stricter ε demands more samples (Figure 3) and the sample-size estimate
//! is well-behaved across the ε range. These run the full Algorithm 1.

use scis_core::dim::{DimConfig, GenerativeLoss, LambdaMode};
use scis_core::pipeline::{Scis, ScisConfig};
use scis_core::sse::SseConfig;
use scis_data::normalize::MinMaxScaler;
use scis_data::CovidRecipe;
use scis_imputers::{GainImputer, TrainConfig};
use scis_tensor::Rng64;

fn config(epsilon: f64) -> ScisConfig {
    ScisConfig {
        dim: DimConfig {
            train: TrainConfig {
                epochs: 15,
                batch_size: 64,
                learning_rate: 0.005,
                dropout: 0.0,
            },
            lambda: LambdaMode::Relative(0.1),
            max_sinkhorn_iters: 100,
            alpha: 10.0,
            critic: None,
            loss: GenerativeLoss::MaskedSinkhorn,
            ..Default::default()
        },
        sse: SseConfig {
            epsilon,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn n_star_for(epsilon: f64, seed: u64) -> (usize, usize) {
    let inst = CovidRecipe::Response.generate(0.01, seed); // ~2000 rows
    let (norm, _) = MinMaxScaler::fit_transform_dataset(&inst.dataset);
    let mut rng = Rng64::seed_from_u64(seed);
    let mut gain = GainImputer::new(config(epsilon).dim.train);
    let outcome = Scis::new(config(epsilon))
        .try_run(&mut gain, &norm, inst.n0, &mut rng)
        .expect("pipeline run");
    (outcome.n_star, outcome.n_total)
}

#[test]
fn figure3_trend_stricter_epsilon_needs_more_samples() {
    // identical data and seed, only ε varies (common random numbers inside
    // SSE make the comparison exact); the three runs share nothing, so they
    // run side by side
    let [(n_loose, total), (n_mid, _), (n_tight, _)] = std::thread::scope(|s| {
        [0.05, 0.01, 0.002]
            .map(|eps| s.spawn(move || n_star_for(eps, 99)))
            .map(|run| run.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    });
    assert!(
        n_loose <= n_mid && n_mid <= n_tight,
        "n* not monotone in ε: {} / {} / {} (N = {})",
        n_loose,
        n_mid,
        n_tight,
        total
    );
    // and the loose end actually saves samples
    assert!(
        n_loose < total,
        "even ε = 0.05 used the whole dataset ({} of {})",
        n_loose,
        total
    );
}

#[test]
fn sse_reports_calibration_and_probes() {
    let inst = CovidRecipe::Trial.generate(0.1, 7);
    let (norm, _) = MinMaxScaler::fit_transform_dataset(&inst.dataset);
    let mut rng = Rng64::seed_from_u64(7);
    let mut gain = GainImputer::new(config(0.01).dim.train);
    let outcome = Scis::new(config(0.01))
        .try_run(&mut gain, &norm, inst.n0, &mut rng)
        .expect("pipeline run");
    assert!(outcome.sse.calibration > 0.0 && outcome.sse.calibration.is_finite());
    assert!(outcome.sse.probes >= 1);
    assert!((0.0..=1.0).contains(&outcome.sse.prob_at_n_star));
}
