//! MIWAE — missing-data importance-weighted autoencoder (Mattei &
//! Frellsen, ICML'19), simplified.
//!
//! Training uses the observed-cell ELBO of the shared `VaeCore` (the full
//! K-sample IWAE gradient is replaced by the ELBO — DESIGN.md §4); the
//! *imputation* step is MIWAE's defining ingredient and is kept faithful:
//! self-normalized importance sampling over `K` latent draws,
//!
//! ```text
//! x̄ = Σ_k w̃_k · dec(z_k),   w̃_k ∝ p(x_obs | z_k) p(z_k) / q(z_k | x)
//! ```
//!
//! with a Gaussian observation model on the observed cells.

use crate::traits::{Imputer, TrainConfig};
use crate::vaei::VaeCore;
use scis_data::Dataset;
use scis_nn::{Adam, Mode};
use scis_tensor::{Matrix, Rng64};

/// Importance-weighted autoencoder imputer (MIWAE row).
pub struct MiwaeImputer {
    /// Shared deep-learning hyper-parameters.
    pub config: TrainConfig,
    /// Latent dimensionality.
    pub latent: usize,
    /// Hidden width.
    pub hidden: usize,
    /// KL weight β during (ELBO) training.
    pub beta: f64,
    /// Importance samples K at imputation time.
    pub n_importance: usize,
    /// Observation noise σ of the Gaussian likelihood.
    pub obs_sigma: f64,
}

impl Default for MiwaeImputer {
    fn default() -> Self {
        Self {
            config: TrainConfig::default(),
            latent: 10,
            hidden: 32,
            beta: 1e-3,
            n_importance: 20,
            obs_sigma: 0.1,
        }
    }
}

impl Imputer for MiwaeImputer {
    fn name(&self) -> &'static str {
        "MIWAE"
    }

    fn impute(&mut self, ds: &Dataset, rng: &mut Rng64) -> Matrix {
        let (n, d) = ds.values.shape();
        let x_zero = ds.values_filled(0.0);
        let mask = ds.dense_mask();
        let enc_input = x_zero.hadamard(&mask).hcat(&mask);
        let latent = self.latent.min((2 * d).max(2));

        let hidden = [self.hidden];
        let mut core = VaeCore::new(2 * d, latent, &hidden, &hidden, d, rng);
        let mut opt_e = Adam::new(self.config.learning_rate);
        let mut opt_d = Adam::new(self.config.learning_rate);
        let bs = self.config.batch_size.min(n);
        for _epoch in 0..self.config.epochs {
            let order = rng.permutation(n);
            for chunk in order.chunks(bs) {
                let ib = enc_input.select_rows(chunk);
                let xb = x_zero.select_rows(chunk);
                let mb = mask.select_rows(chunk);
                core.train_step(&ib, &xb, &mb, self.beta, &mut opt_e, &mut opt_d, rng);
            }
        }

        // --- importance-weighted imputation ---
        let k = self.n_importance.max(1);
        let enc_out = core.encoder.forward(&enc_input, Mode::Eval, rng);
        let mu = enc_out.select_cols(&(0..latent).collect::<Vec<_>>());
        let logvar = enc_out.select_cols(&(latent..2 * latent).collect::<Vec<_>>());
        let std = logvar.map(|v| (0.5 * v).exp());

        let mut acc = Matrix::zeros(n, d);
        let mut weight_acc = vec![0.0f64; n];
        // accumulate with streaming log-sum-exp–free normalization: collect
        // log-weights per draw, shift by each row's running max
        let mut draws: Vec<(Matrix, Vec<f64>)> = Vec::with_capacity(k);
        let inv_two_sigma2 = 1.0 / (2.0 * self.obs_sigma * self.obs_sigma);
        for _ in 0..k {
            let eps = Matrix::from_fn(n, latent, |_, _| rng.normal());
            let z = mu.add(&eps.hadamard(&std));
            let recon = core.decoder.forward(&z, Mode::Eval, rng);
            // log w = log p(x_obs|z) + log p(z) − log q(z|x), constants drop
            let mut log_w = vec![0.0f64; n];
            for i in 0..n {
                let mut lw = 0.0;
                for j in 0..d {
                    if mask[(i, j)] > 0.5 {
                        let diff = recon[(i, j)] - x_zero[(i, j)];
                        lw -= diff * diff * inv_two_sigma2;
                    }
                }
                for l in 0..latent {
                    let zv = z[(i, l)];
                    let e = eps[(i, l)];
                    // log p(z) − log q(z|x) = −z²/2 + (ε²/2 + logσ_q)
                    lw += -0.5 * zv * zv + 0.5 * e * e + 0.5 * logvar[(i, l)];
                }
                log_w[i] = lw;
            }
            draws.push((recon, log_w));
        }
        // per-row max for stability
        let mut row_max = vec![f64::NEG_INFINITY; n];
        for (_, lw) in &draws {
            for (m, &v) in row_max.iter_mut().zip(lw) {
                *m = m.max(v);
            }
        }
        for (recon, lw) in &draws {
            for i in 0..n {
                let w = (lw[i] - row_max[i]).exp();
                weight_acc[i] += w;
                for j in 0..d {
                    acc[(i, j)] += w * recon[(i, j)];
                }
            }
        }
        for i in 0..n {
            let w = weight_acc[i].max(1e-300);
            for j in 0..d {
                acc[(i, j)] /= w;
            }
        }
        ds.merge_imputed(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::correlated_table;
    use scis_data::metrics::rmse_vs_ground_truth;
    use scis_data::missing::inject_mcar;

    fn fast() -> MiwaeImputer {
        MiwaeImputer {
            config: TrainConfig {
                epochs: 80,
                batch_size: 64,
                learning_rate: 0.005,
                dropout: 0.0,
            },
            latent: 4,
            hidden: 24,
            beta: 1e-4,
            n_importance: 10,
            obs_sigma: 0.1,
        }
    }

    #[test]
    fn beats_mean_on_correlated_data() {
        let complete = correlated_table(400, 71);
        let mut rng = Rng64::seed_from_u64(72);
        let ds = inject_mcar(&complete, 0.3, &mut rng);
        let out = fast().impute(&ds, &mut rng);
        let e = rmse_vs_ground_truth(&ds, &complete, &out);
        let e_mean = rmse_vs_ground_truth(
            &ds,
            &complete,
            &crate::mean::MeanImputer.impute(&ds, &mut rng),
        );
        assert!(e < e_mean, "miwae {} vs mean {}", e, e_mean);
    }

    #[test]
    fn importance_weights_are_finite_and_normalized() {
        let complete = correlated_table(100, 73);
        let mut rng = Rng64::seed_from_u64(74);
        let ds = inject_mcar(&complete, 0.3, &mut rng);
        let out = fast().impute(&ds, &mut rng);
        assert!(!out.has_nan());
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn observed_cells_pass_through() {
        let complete = correlated_table(120, 75);
        let mut rng = Rng64::seed_from_u64(76);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let out = fast().impute(&ds, &mut rng);
        for (i, j, v) in ds.observed_cells() {
            assert_eq!(out[(i, j)], v);
        }
    }

    #[test]
    fn more_importance_samples_does_not_break() {
        let complete = correlated_table(80, 77);
        let mut rng = Rng64::seed_from_u64(78);
        let ds = inject_mcar(&complete, 0.3, &mut rng);
        let mut m = fast();
        m.n_importance = 50;
        let out = m.impute(&ds, &mut rng);
        assert!(!out.has_nan());
    }
}
