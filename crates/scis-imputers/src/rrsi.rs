//! RRSI — Sinkhorn-divergence batch imputation (Muzellec et al., "Missing
//! data imputation using optimal transport", the paper's RRSI row).
//!
//! The imputed values themselves are the free parameters: the method
//! repeatedly samples two batches of the current imputed matrix and takes a
//! gradient step on the missing entries to *reduce the Sinkhorn divergence
//! between the two batches*. As the paper's §IV.A discussion points out,
//! this objective drags the imputations toward a mixture of the observed
//! and initially-imputed distributions rather than the true underlying one
//! — the contrast that motivates the MS divergence. We keep the method
//! faithful to that behaviour.

use crate::traits::{Imputer, TrainConfig};
use scis_data::Dataset;
use scis_ot::{ms_loss_grad, AccelContext, EscalationPolicy, SinkhornOptions};
use scis_tensor::stats::nan_mean;
use scis_tensor::{Matrix, Rng64};

/// Sinkhorn batch imputer.
#[derive(Debug, Clone)]
pub struct RrsiImputer {
    /// Training schedule (epochs ≈ gradient rounds).
    pub config: TrainConfig,
    /// Sinkhorn solver options. λ must sit *below* the within-cluster
    /// squared distances of the data or the divergence's debiasing term
    /// cancels the imputation signal.
    pub sinkhorn: SinkhornOptions,
    /// Std of the noise added to the mean initialization.
    pub init_noise: f64,
    /// SGD step size on the imputed cells (the loss is already scaled by
    /// 1/(2n), hence the large default).
    pub step_size: f64,
}

impl Default for RrsiImputer {
    fn default() -> Self {
        Self {
            config: TrainConfig::default(),
            sinkhorn: SinkhornOptions {
                lambda: 0.002,
                max_iters: 500,
                tol: 1e-7,
                ..Default::default()
            },
            init_noise: 0.1,
            step_size: 100.0,
        }
    }
}

/// Plain SGD on the free (missing) cells. Adam is deliberately *not* used
/// here: its magnitude normalization turns the small, noisy batch gradients
/// into constant-size steps — a random walk that degrades the imputation
/// (observed empirically; see the hyper-parameter notes in DESIGN.md).
struct CellSgd {
    lr: f64,
}

impl CellSgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

impl Imputer for RrsiImputer {
    fn name(&self) -> &'static str {
        "RRSI"
    }

    fn impute(&mut self, ds: &Dataset, rng: &mut Rng64) -> Matrix {
        let (n, d) = ds.values.shape();
        let means: Vec<f64> = (0..d)
            .map(|j| nan_mean(&ds.values.col(j)).unwrap_or(0.5))
            .collect();
        // free parameters: one slot per missing cell
        let missing: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| {
                (0..d).filter_map(move |j| {
                    if ds.mask.get(i, j) {
                        None
                    } else {
                        Some((i, j))
                    }
                })
            })
            .collect();
        let mut x = Matrix::from_fn(n, d, |i, j| {
            let v = ds.values[(i, j)];
            if v.is_nan() {
                (means[j] + rng.normal_with(0.0, self.init_noise)).clamp(0.0, 1.0)
            } else {
                v
            }
        });
        if missing.is_empty() {
            return x;
        }

        let bs = self.config.batch_size.min(n / 2).max(2);
        let rounds = self.config.epochs * (n / (2 * bs)).max(1);
        let mut opt = CellSgd { lr: self.step_size };
        // cell -> parameter index lookup
        let mut param_of = std::collections::HashMap::with_capacity(missing.len());
        for (k, &(i, j)) in missing.iter().enumerate() {
            param_of.insert((i, j), k);
        }
        let ones = Matrix::ones(bs, d);
        let grad_of = |p: &Matrix, q: &Matrix| {
            let (ctx, none) = (AccelContext::plain(), EscalationPolicy::none());
            ms_loss_grad(p, q, &ones, &self.sinkhorn, &none, &ctx, None).map(|(_, g, _)| g)
        };

        for _round in 0..rounds {
            let idx = rng.sample_indices(n, 2 * bs);
            let (ia, ib) = idx.split_at(bs);
            let a = x.select_rows(ia);
            let b = x.select_rows(ib);
            // S(A,B) gradients w.r.t. both batches (divergence is symmetric);
            // a round whose solve rejects its cost is skipped
            let (Ok(ga), Ok(gb)) = (grad_of(&a, &b), grad_of(&b, &a)) else {
                continue;
            };

            let mut grads = vec![0.0; missing.len()];
            let mut any = false;
            for (bi, &row) in ia.iter().enumerate() {
                for j in 0..d {
                    if let Some(&k) = param_of.get(&(row, j)) {
                        grads[k] += ga[(bi, j)];
                        any = true;
                    }
                }
            }
            for (bi, &row) in ib.iter().enumerate() {
                for j in 0..d {
                    if let Some(&k) = param_of.get(&(row, j)) {
                        grads[k] += gb[(bi, j)];
                        any = true;
                    }
                }
            }
            if !any {
                continue;
            }
            // gather, step, scatter
            let mut params: Vec<f64> = missing.iter().map(|&(i, j)| x[(i, j)]).collect();
            opt.step(&mut params, &grads);
            for (&(i, j), p) in missing.iter().zip(&params) {
                x[(i, j)] = p.clamp(0.0, 1.0);
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_data::metrics::rmse_vs_ground_truth;
    use scis_data::missing::inject_mcar;

    fn clustered(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, 3);
        for i in 0..n {
            let c = if rng.bernoulli(0.5) { 0.2 } else { 0.8 };
            for j in 0..3 {
                m[(i, j)] = (c + rng.normal_with(0.0, 0.03)).clamp(0.0, 1.0);
            }
        }
        m
    }

    fn fast() -> RrsiImputer {
        RrsiImputer {
            config: TrainConfig {
                epochs: 60,
                batch_size: 32,
                ..TrainConfig::fast_test()
            },
            sinkhorn: SinkhornOptions {
                lambda: 0.002,
                max_iters: 300,
                tol: 1e-6,
                ..Default::default()
            },
            init_noise: 0.1,
            step_size: 100.0,
        }
    }

    #[test]
    fn improves_over_its_own_initialization_on_clustered_data() {
        let complete = clustered(200, 1);
        let mut rng = Rng64::seed_from_u64(2);
        let ds = inject_mcar(&complete, 0.2, &mut rng);
        let out = fast().impute(&ds, &mut rng);
        let mean_out = crate::mean::MeanImputer.impute(&ds, &mut rng);
        let e = rmse_vs_ground_truth(&ds, &complete, &out);
        let e_mean = rmse_vs_ground_truth(&ds, &complete, &mean_out);
        assert!(e < e_mean, "rrsi {} vs mean {}", e, e_mean);
    }

    #[test]
    fn observed_cells_pass_through() {
        let complete = clustered(100, 3);
        let mut rng = Rng64::seed_from_u64(4);
        let ds = inject_mcar(&complete, 0.3, &mut rng);
        let out = fast().impute(&ds, &mut rng);
        for (i, j, v) in ds.observed_cells() {
            assert_eq!(out[(i, j)], v);
        }
        assert!(!out.has_nan());
    }

    #[test]
    fn complete_dataset_returns_immediately() {
        let complete = clustered(50, 5);
        let ds = Dataset::from_values(complete.clone());
        let mut rng = Rng64::seed_from_u64(6);
        let out = fast().impute(&ds, &mut rng);
        assert_eq!(out, complete);
    }

    #[test]
    fn imputed_values_respect_unit_interval() {
        let complete = clustered(120, 7);
        let mut rng = Rng64::seed_from_u64(8);
        let ds = inject_mcar(&complete, 0.4, &mut rng);
        let out = fast().impute(&ds, &mut rng);
        for v in out.as_slice() {
            assert!((-1e-9..=1.0 + 1e-9).contains(v));
        }
    }
}
