//! Synthetic complete-data generator.
//!
//! The paper evaluates on six real COVID-19 tables we cannot download here;
//! DESIGN.md documents the substitution: a latent-factor generator that
//! produces tables with (a) strong cross-feature dependence — so imputers
//! that model the joint distribution beat marginal fills, exactly the
//! regime the paper's comparisons live in — and (b) mixed
//! continuous/categorical marginals like the real tables.
//!
//! Model: `z_i ~ N(0, I_k)`, `h_i = tanh(z_i · W1)`, `x_i = h_i · W2 + ε`,
//! followed by per-column marginal warps; categorical columns are quantile-
//! binned into ordinal levels.

use crate::dataset::ColumnKind;
use scis_tensor::ops::{gemm, Op};
use scis_tensor::{ExecPolicy, Matrix, Precision, Rng64};

/// Configuration of the latent-factor generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of samples.
    pub n_samples: usize,
    /// Number of features.
    pub n_features: usize,
    /// Latent dimensionality `k` (controls how low-rank / learnable the
    /// table is; small `k` → strongly dependent features).
    pub latent_dim: usize,
    /// How many of the features are quantile-binned to categorical levels.
    pub n_categorical: usize,
    /// Levels per categorical column.
    pub categorical_levels: usize,
    /// Std of additive observation noise.
    pub noise_std: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            n_samples: 1000,
            n_features: 8,
            latent_dim: 3,
            n_categorical: 0,
            categorical_levels: 4,
            noise_std: 0.05,
        }
    }
}

/// Output of [`generate`]: the complete matrix and its column kinds.
#[derive(Debug, Clone)]
pub struct SynthData {
    /// Complete ground-truth matrix (`n_samples x n_features`).
    pub complete: Matrix,
    /// Column kinds (categoricals are the *last* `n_categorical` columns).
    pub kinds: Vec<ColumnKind>,
}

/// Generates a complete table per `cfg`, deterministically under `rng`.
///
/// # Panics
/// Panics if `n_categorical > n_features` or `latent_dim == 0`.
pub fn generate(cfg: &SynthConfig, rng: &mut Rng64) -> SynthData {
    assert!(
        cfg.n_categorical <= cfg.n_features,
        "more categorical than features"
    );
    assert!(cfg.latent_dim > 0, "latent_dim must be positive");
    let (n, d, k) = (cfg.n_samples, cfg.n_features, cfg.latent_dim);
    let hidden = (2 * k).max(4);

    let z = Matrix::from_fn(n, k, |_, _| rng.normal());
    let w1 = Matrix::from_fn(k, hidden, |_, _| {
        rng.normal_with(0.0, 1.0 / (k as f64).sqrt())
    });
    let w2 = Matrix::from_fn(hidden, d, |_, _| {
        rng.normal_with(0.0, 1.0 / (hidden as f64).sqrt())
    });
    let product = |a: &Matrix, b: &Matrix| gemm(a, Op::Nn, b, ExecPolicy::Serial, Precision::F64);
    let h = product(&z, &w1).map(f64::tanh);
    let mut x = product(&h, &w2);
    if cfg.noise_std > 0.0 {
        for v in x.as_mut_slice() {
            *v += rng.normal_with(0.0, cfg.noise_std);
        }
    }

    // per-column marginal warps so columns don't all look Gaussian
    for j in 0..d {
        match j % 3 {
            0 => {} // keep linear-ish
            1 => {
                for i in 0..n {
                    let v = x[(i, j)];
                    x[(i, j)] = v.signum() * v.abs().sqrt(); // heavy-ish center
                }
            }
            _ => {
                for i in 0..n {
                    x[(i, j)] = (x[(i, j)] * 1.5).tanh(); // saturating
                }
            }
        }
    }

    // quantile-bin the last n_categorical columns into ordinal levels
    let mut kinds = vec![ColumnKind::Continuous; d];
    let first_cat = d - cfg.n_categorical;
    for j in first_cat..d {
        let col = x.col(j);
        let levels = cfg.categorical_levels.max(2);
        let cuts: Vec<f64> = (1..levels)
            .map(|l| {
                scis_tensor::stats::quantile(&col, l as f64 / levels as f64)
                    .expect("non-empty column")
            })
            .collect();
        for i in 0..n {
            let v = x[(i, j)];
            let mut level = 0usize;
            for &c in &cuts {
                if v > c {
                    level += 1;
                }
            }
            x[(i, j)] = level as f64;
        }
        kinds[j] = ColumnKind::Categorical { levels };
    }

    SynthData { complete: x, kinds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_tensor::stats::nan_pearson;

    #[test]
    fn shapes_and_kinds() {
        let cfg = SynthConfig {
            n_samples: 100,
            n_features: 6,
            n_categorical: 2,
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(1);
        let data = generate(&cfg, &mut rng);
        assert_eq!(data.complete.shape(), (100, 6));
        assert_eq!(data.kinds.len(), 6);
        assert_eq!(data.kinds[3], ColumnKind::Continuous);
        assert!(matches!(data.kinds[4], ColumnKind::Categorical { .. }));
        assert!(!data.complete.has_nan());
    }

    #[test]
    fn features_are_cross_correlated() {
        // low-rank structure ⇒ some feature pair must correlate strongly;
        // this is the property that makes model-based imputation beat mean
        let cfg = SynthConfig {
            n_samples: 3000,
            n_features: 8,
            latent_dim: 2,
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(2);
        let data = generate(&cfg, &mut rng);
        let mut max_abs_corr = 0.0f64;
        for a in 0..8 {
            for b in (a + 1)..8 {
                if let Some(c) = nan_pearson(&data.complete.col(a), &data.complete.col(b)) {
                    max_abs_corr = max_abs_corr.max(c.abs());
                }
            }
        }
        assert!(max_abs_corr > 0.5, "max |corr| = {}", max_abs_corr);
    }

    #[test]
    fn categorical_columns_take_integer_levels() {
        let cfg = SynthConfig {
            n_samples: 500,
            n_features: 4,
            n_categorical: 4,
            categorical_levels: 3,
            ..Default::default()
        };
        let mut rng = Rng64::seed_from_u64(3);
        let data = generate(&cfg, &mut rng);
        for v in data.complete.as_slice() {
            assert!(*v == 0.0 || *v == 1.0 || *v == 2.0, "level {}", v);
        }
        // roughly balanced levels (quantile binning)
        let zeros = data
            .complete
            .as_slice()
            .iter()
            .filter(|&&v| v == 0.0)
            .count();
        let frac = zeros as f64 / data.complete.len() as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.1, "level-0 fraction {}", frac);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SynthConfig::default();
        let a = generate(&cfg, &mut Rng64::seed_from_u64(7));
        let b = generate(&cfg, &mut Rng64::seed_from_u64(7));
        assert_eq!(a.complete, b.complete);
    }

    #[test]
    #[should_panic(expected = "more categorical than features")]
    fn rejects_too_many_categoricals() {
        let cfg = SynthConfig {
            n_features: 2,
            n_categorical: 3,
            ..Default::default()
        };
        let _ = generate(&cfg, &mut Rng64::seed_from_u64(1));
    }
}
