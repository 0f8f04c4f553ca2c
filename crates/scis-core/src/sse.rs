//! SSE — Sample Size Estimation (paper §V).
//!
//! Given the initial model `M0` (parameters `θ0`) trained on `n0` samples,
//! SSE finds the minimum `n* ∈ [n0, N]` such that the imputation difference
//! between the model trained on `n*` samples and the model trained on all
//! `N` samples stays below `ε` with confidence `1 − α`:
//!
//! 1. **Theorem 1** — `θ̂_n | θ0 ~ N(θ0, η(n)·H⁻¹)` with
//!    `η(n) = ζ(λ)·(1/n0 − 1/n)`, `ζ(λ) = e^{6/λ}(1 + 1/λ^{⌊d/2⌋})²`.
//!    We keep the *diagonal* of the Gauss–Newton/empirical-Fisher `H`
//!    (DESIGN.md §6): full `H` is `P×P` for `P` generator parameters.
//! 2. **Proposition 2** — Monte-Carlo estimate of `P(D(θ_n, θ_N) ≤ ε)`
//!    from `k` sampled parameter pairs, accepted when it clears the
//!    Hoeffding-corrected threshold `(1−α)/(1−β) + sqrt(log β / (−2k))`.
//!    With the paper's constants (α=.05, β=.01, k=20) that threshold
//!    exceeds 1, so it clamps to "all k draws within ε" — noted in
//!    EXPERIMENTS.md.
//! 3. **Binary search** over `n`, monotone by common random numbers: the
//!    same base Gaussian draws are rescaled by `sqrt(η)` at every probe.
//!
//! ## Calibration (documented deviation, DESIGN.md §6)
//!
//! Theorem 1 is stated up to `≍` — unspecified multiplicative constants.
//! Taken with constant 1 and a diagonal `H`, the predicted difference
//! `D(θ_n, θ_N)` is off by orders of magnitude (it would always demand
//! `n* = N`). We therefore anchor the scale *empirically*: the pipeline
//! trains a **sibling model** on a second size-`n0` sample, measures the
//! real model-to-model imputation difference `D_obs`, and rescales the
//! Monte-Carlo distances so that their prediction at the sibling setting
//! (`η_ref = 2ζ/n0`, two independent size-`n0` models) matches `D_obs`.
//! The `1/n`-shape of Theorem 1 is untouched — only the hidden constant is
//! estimated from data. Perturbation probes are kept in the network's
//! linear-response regime by normalizing the per-parameter scales
//! ([`SseConfig::probe_std`]).
//!
//! `D(θa, θb)` is evaluated exactly as Eq. 4 prescribes: the RMS of
//! `m ⊙ (x̄_a − x̄_b)` over the held-aside validation set, by swapping the
//! parameter vectors in and out of the generator.

use scis_data::Dataset;
use scis_imputers::AdversarialImputer;
use scis_ot::{
    ms_loss_grad, AccelContext, DualCache, EscalationPolicy, MaskedRows, SinkhornOptions,
};
use scis_telemetry::{Counter, Event, Series, Telemetry};
use scis_tensor::{ExecPolicy, Rng64, RunDeadline};

/// SSE configuration (paper defaults from §VI).
#[derive(Debug, Clone, Copy)]
pub struct SseConfig {
    /// User-tolerated error bound ε (paper default 0.001).
    pub epsilon: f64,
    /// Confidence level α (paper default 0.05).
    pub alpha: f64,
    /// Hoeffding hyper-parameter β, `0 < β ≤ α` (paper default 0.01).
    pub beta: f64,
    /// Number of parameter samples k (paper default 20).
    pub k: usize,
    /// λ used in ζ(λ) (paper default 130; this is the paper's absolute λ,
    /// independent of DIM's batch-relative λ — DESIGN.md §6).
    pub zeta_lambda: f64,
    /// Typical per-parameter probe std at the reference scale `η = ζ/n0`;
    /// keeps Monte-Carlo perturbations in the linear-response regime.
    pub probe_std: f64,
    /// Ridge added to the Fisher diagonal before inversion.
    pub fisher_ridge: f64,
    /// Whether the pipeline should calibrate against a sibling model
    /// (strongly recommended; `false` keeps Theorem 1's raw constant 1).
    pub calibrate: bool,
    /// Execution policy for the Monte-Carlo distance evaluations: the `k`
    /// draws fan out across worker threads, each on its own deep-copied
    /// imputer ([`AdversarialImputer::clone_boxed`]). Results are
    /// bit-identical to the serial evaluation.
    pub exec: ExecPolicy,
    /// Binary-search stopping granularity on `n` (rows). `None` keeps the
    /// adaptive default `max(N / 200, 1)`. Out-of-core runs can widen this
    /// so each probe gathers fewer candidate training sets; the streamed
    /// and in-memory pipelines share whatever value is configured, so their
    /// searches visit identical midpoints.
    pub granularity: Option<usize>,
}

impl Default for SseConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.001,
            alpha: 0.05,
            beta: 0.01,
            k: 20,
            zeta_lambda: 130.0,
            probe_std: 0.01,
            fisher_ridge: 1e-12,
            calibrate: true,
            exec: ExecPolicy::default(),
            granularity: None,
        }
    }
}

impl SseConfig {
    /// Fluent setter for [`SseConfig::epsilon`].
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Fluent setter for [`SseConfig::alpha`].
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Fluent setter for [`SseConfig::beta`].
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Fluent setter for [`SseConfig::k`].
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Fluent setter for [`SseConfig::zeta_lambda`].
    pub fn zeta_lambda(mut self, zeta_lambda: f64) -> Self {
        self.zeta_lambda = zeta_lambda;
        self
    }

    /// Fluent setter for [`SseConfig::probe_std`].
    pub fn probe_std(mut self, probe_std: f64) -> Self {
        self.probe_std = probe_std;
        self
    }

    /// Fluent setter for [`SseConfig::fisher_ridge`].
    pub fn fisher_ridge(mut self, fisher_ridge: f64) -> Self {
        self.fisher_ridge = fisher_ridge;
        self
    }

    /// Fluent setter for [`SseConfig::calibrate`].
    pub fn calibrate(mut self, calibrate: bool) -> Self {
        self.calibrate = calibrate;
        self
    }

    /// Fluent setter for [`SseConfig::exec`].
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Fluent setter for [`SseConfig::granularity`].
    pub fn granularity(mut self, granularity: usize) -> Self {
        self.granularity = Some(granularity);
        self
    }

    /// ζ(λ) from Theorem 1 for data dimension `d`.
    pub fn zeta(&self, d: usize) -> f64 {
        let l = self.zeta_lambda;
        let pow = l.powi((d / 2) as i32);
        let correction = 1.0 + 1.0 / pow;
        ((6.0 / l).exp() * correction * correction).min(1e12)
    }

    /// The Proposition-2 acceptance threshold on the empirical probability,
    /// clamped to 1 (with the paper's constants it exceeds 1).
    pub fn acceptance_threshold(&self) -> f64 {
        assert!(self.beta > 0.0 && self.beta <= self.alpha && self.alpha <= 1.0);
        let eps1 = (self.beta.ln() / (-2.0 * self.k as f64)).sqrt();
        ((1.0 - self.alpha) / (1.0 - self.beta) + eps1).min(1.0)
    }
}

/// One evaluated candidate size in the SSE binary search, in probe order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SseProbe {
    /// The candidate sample size that was probed.
    pub n: usize,
    /// Empirical `P(D ≤ ε)` measured at `n`.
    pub prob: f64,
    /// Whether the probability cleared the Proposition-2 threshold.
    pub accepted: bool,
}

/// Result of the SSE binary search.
#[derive(Debug, Clone)]
pub struct SseResult {
    /// The estimated minimum sample size `n*`.
    pub n_star: usize,
    /// Empirical `P(D ≤ ε)` at `n*`.
    pub prob_at_n_star: f64,
    /// Number of candidate sizes probed by the binary search.
    pub probes: usize,
    /// The calibration factor γ applied to the Monte-Carlo distances.
    pub calibration: f64,
    /// Wall-clock duration of the estimation (excluding the pipeline's
    /// sibling-model training).
    pub duration: std::time::Duration,
    /// The binary-search trace: every distinct candidate size evaluated,
    /// in probe order (cache hits are not re-recorded).
    pub trace: Vec<SseProbe>,
}

impl SseResult {
    /// A placeholder for runs where SSE never happened (the pipeline
    /// degraded before reaching it): `n* = n0`, zero probes.
    pub fn skipped(n0: usize) -> Self {
        Self {
            n_star: n0,
            prob_at_n_star: 0.0,
            probes: 0,
            calibration: 1.0,
            duration: std::time::Duration::ZERO,
            trace: Vec::new(),
        }
    }
}

/// Estimates the diagonal of the Gauss–Newton/empirical-Fisher matrix of
/// the MS-divergence loss at the current generator parameters, from batches
/// of the initial training set.
///
/// Only the *relative* structure of this diagonal matters — the absolute
/// scale is fixed by [`SseEstimator`]'s probe normalization + calibration.
///
/// Poisoned batches are *skipped* instead of panicking deep inside the
/// solver, non-converged solves are escalated per `policy`, and the solve
/// accounting is recorded on `tel`. Sinkhorn solves may warm-start from
/// `cache` (read-only — the probe operates on perturbed parameters, so its
/// duals are *not* written back and cannot pollute the training-epoch
/// entries), and the batch cost matrix may be built with the decomposed
/// GEMM kernel per `accel`. With [`EscalationPolicy::none`],
/// [`DualCache::off`] and the default [`crate::dim::AccelConfig`] every
/// solve runs once, cold, on the loop cost kernel.
#[allow(clippy::too_many_arguments)]
pub fn fisher_diagonal(
    imp: &mut dyn AdversarialImputer,
    ds: &Dataset,
    sinkhorn: &SinkhornOptions,
    batch_size: usize,
    policy: &EscalationPolicy,
    tel: &Telemetry,
    cache: &DualCache,
    accel: crate::dim::AccelConfig,
    rng: &mut Rng64,
) -> Vec<f64> {
    let n = ds.n_samples();
    let x = ds.values_filled(0.0);
    let mask = ds.dense_mask();
    let bs = batch_size.min(n).max(2);
    let order = rng.permutation(n);
    let p = imp.generator_mut().num_params();
    let mut diag = vec![0.0; p];
    let mut batches = 0usize;
    let data_masked = accel.decomposed_cost.then(|| MaskedRows::new(&x, &mask));
    for chunk in order.chunks(bs) {
        if chunk.len() < 2 {
            continue;
        }
        let xb = x.select_rows(chunk);
        let mb = mask.select_rows(chunk);
        let g_in = imp.generator_input(&xb, &mb, rng);
        let generator = imp.generator_mut();
        let xbar = generator.forward(&g_in, scis_nn::Mode::Eval, rng);
        if xbar.as_slice().iter().any(|v| !v.is_finite()) {
            // a poisoned batch would contaminate the whole diagonal
            continue;
        }
        let data_batch = data_masked.as_ref().map(|d| d.select(chunk));
        let ctx = AccelContext {
            cache,
            rows: chunk,
            data_side: data_batch.as_ref(),
            decomposed_cost: accel.decomposed_cost,
            eps_scale_cold: accel.eps_scale_cold,
            store: false,
        };
        let solved = ms_loss_grad(&xbar, &xb, &mb, sinkhorn, policy, &ctx, None);
        let (grad_xbar, solve_stats) = match solved {
            Ok((_, grad, stats)) => (grad, stats),
            // a rejected solve (non-finite cost) poisons only this batch
            Err(_) => continue,
        };
        crate::dim::record_solve_stats(tel, solve_stats);
        generator.zero_grad();
        generator.backward(&grad_xbar);
        let g = generator.grad_vector();
        if g.iter().any(|v| !v.is_finite()) {
            continue;
        }
        for (acc, gv) in diag.iter_mut().zip(&g) {
            *acc += gv * gv;
        }
        batches += 1;
    }
    let scale = 1.0 / batches.max(1) as f64;
    for v in &mut diag {
        *v *= scale;
    }
    diag
}

/// The Eq.-4 imputation difference between two parameter vectors, evaluated
/// on the validation set: RMS of `m ⊙ (x̄_a − x̄_b)` over observed cells.
pub fn model_distance(
    imp: &mut dyn AdversarialImputer,
    validation: &Dataset,
    theta_a: &[f64],
    theta_b: &[f64],
) -> f64 {
    let vx = validation.values_filled(0.0);
    let vm = validation.dense_mask();
    let cells = validation.mask.count_observed().max(1) as f64;
    let saved = imp.generator_mut().param_vector();
    imp.generator_mut().set_param_vector(theta_a);
    let xa = imp.reconstruct(&vx, &vm);
    imp.generator_mut().set_param_vector(theta_b);
    let xb = imp.reconstruct(&vx, &vm);
    imp.generator_mut().set_param_vector(&saved);
    let diff = xa.sub(&xb).hadamard(&vm);
    (diff.as_slice().iter().map(|v| v * v).sum::<f64>() / cells).sqrt()
}

/// Theorem-1 Monte-Carlo machinery with common random numbers.
///
/// Build once per SSE invocation; the same base draws are reused for every
/// probed `n`, which makes `P̂(D ≤ ε)` monotone in `n` and the binary
/// search well defined.
pub struct SseEstimator {
    theta0: Vec<f64>,
    /// Per-parameter perturbation scale at η = 1 (already normalized so
    /// that η = ζ/n0 gives a median probe of `probe_std`).
    unit_scale: Vec<f64>,
    draws_n: Vec<Vec<f64>>,
    draws_gap: Vec<Vec<f64>>,
    zeta: f64,
    n0: usize,
    n_total: usize,
    cfg: SseConfig,
    calibration: f64,
    telemetry: Telemetry,
    deadline: RunDeadline,
}

impl SseEstimator {
    /// Builds the estimator for the current generator parameters.
    pub fn new(
        imp: &mut dyn AdversarialImputer,
        fisher_diag: &[f64],
        n0: usize,
        n_total: usize,
        d_features: usize,
        cfg: SseConfig,
        rng: &mut Rng64,
    ) -> Self {
        assert!(n0 <= n_total, "SSE: n0 exceeds N");
        let theta0 = imp.generator_mut().param_vector();
        let p = theta0.len();
        assert_eq!(fisher_diag.len(), p, "SSE: Fisher diagonal length mismatch");
        let zeta = cfg.zeta(d_features);

        // relative structure from H⁻¹ᐟ²…
        let mut scale: Vec<f64> = fisher_diag
            .iter()
            .map(|&h| 1.0 / (h + cfg.fisher_ridge).sqrt())
            .collect();
        // …normalized so the median probe at η_ref = ζ/n0 equals probe_std
        // (keeps the network in its linear-response regime; absolute scale
        // is later fixed by the calibration factor γ)
        let mut sorted = scale.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2].max(1e-300);
        let eta_ref = (zeta / n0 as f64).max(1e-300);
        let norm = cfg.probe_std / (eta_ref.sqrt() * median);
        for s in &mut scale {
            *s = (*s * norm).min(median * norm * 1e3); // cap extreme outliers
        }

        let draws_n: Vec<Vec<f64>> = (0..cfg.k)
            .map(|_| (0..p).map(|_| rng.normal()).collect())
            .collect();
        let draws_gap: Vec<Vec<f64>> = (0..cfg.k)
            .map(|_| (0..p).map(|_| rng.normal()).collect())
            .collect();

        Self {
            theta0,
            unit_scale: scale,
            draws_n,
            draws_gap,
            zeta,
            n0,
            n_total,
            cfg,
            calibration: 1.0,
            telemetry: Telemetry::off(),
            deadline: RunDeadline::none(),
        }
    }

    /// Attaches a telemetry collector: Monte-Carlo evaluations and binary-
    /// search probes are counted on it. Recording never perturbs the
    /// estimates or the RNG streams.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches a run deadline, polled at binary-search probe boundaries
    /// and inside the Monte-Carlo fan-out. On expiry the search stops at
    /// its current accepted candidate instead of refining further.
    pub fn set_deadline(&mut self, deadline: RunDeadline) {
        self.deadline = deadline;
    }

    /// ζ(λ) resolved for this estimator.
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// Sets the empirical calibration factor γ (see module docs).
    pub fn set_calibration(&mut self, gamma: f64) {
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "calibration must be positive"
        );
        self.calibration = gamma;
    }

    /// Current calibration factor.
    pub fn calibration(&self) -> f64 {
        self.calibration
    }

    /// Raw (uncalibrated) Monte-Carlo distances for a *pair variance*
    /// `eta_gap` and a *location variance* `eta_n` — one distance per draw.
    ///
    /// The `k` evaluations fan out across [`SseConfig::exec`] worker
    /// threads when the imputer supports [`AdversarialImputer::clone_boxed`]
    /// — each parameter pair is precomputed up front (no RNG in the
    /// parallel region), each output slot is owned by exactly one worker,
    /// and [`model_distance`] is deterministic, so the result vector is
    /// bit-identical to the serial loop.
    fn mc_distances(
        &self,
        imp: &mut dyn AdversarialImputer,
        validation: &Dataset,
        eta_n: f64,
        eta_gap: f64,
    ) -> Vec<f64> {
        let p = self.theta0.len();
        let k = self.cfg.k;
        self.telemetry.add(Counter::SseMcEvals, k as u64);
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..k)
            .map(|i| {
                let mut theta_n = self.theta0.clone();
                let mut theta_cap = self.theta0.clone();
                for j in 0..p {
                    let s = self.unit_scale[j];
                    let dn = eta_n.sqrt() * s * self.draws_n[i][j];
                    let dg = eta_gap.sqrt() * s * self.draws_gap[i][j];
                    theta_n[j] += dn;
                    theta_cap[j] = theta_n[j] + dg;
                }
                (theta_n, theta_cap)
            })
            .collect();

        let threads = self.cfg.exec.workers(k);
        if threads > 1 {
            if let Some(first) = imp.clone_boxed() {
                let mut out = vec![0.0; k];
                let chunk = k.div_ceil(threads);
                std::thread::scope(|scope| {
                    let mut spare = Some(first);
                    for (block, slot) in out.chunks_mut(chunk).enumerate() {
                        let lo = block * chunk;
                        let pairs = &pairs;
                        let deadline = &self.deadline;
                        let mut worker = spare
                            .take()
                            .or_else(|| imp.clone_boxed())
                            .expect("clone_boxed regressed mid-fan-out");
                        // workers evaluate serially — the fan-out already
                        // saturates the policy's thread budget
                        worker.generator_mut().set_exec(ExecPolicy::Serial);
                        scope.spawn(move || {
                            for (off, d) in slot.iter_mut().enumerate() {
                                // cooperative cancellation: unevaluated
                                // draws stay at distance 0 (counted as
                                // within ε — the graceful direction)
                                if deadline.expired() {
                                    break;
                                }
                                let (ta, tb) = &pairs[lo + off];
                                *d = model_distance(worker.as_mut(), validation, ta, tb);
                            }
                        });
                    }
                });
                return out;
            }
        }
        let mut out = vec![0.0; k];
        for (d, (ta, tb)) in out.iter_mut().zip(&pairs) {
            if self.deadline.expired() {
                break;
            }
            *d = model_distance(imp, validation, ta, tb);
        }
        out
    }

    /// Mean *uncalibrated* Monte-Carlo distance at the sibling reference
    /// variance `η_ref = 2ζ/n0` (two independent size-n0 models) — the
    /// quantity the pipeline divides `D_obs` by to obtain γ.
    pub fn reference_mc_distance(
        &self,
        imp: &mut dyn AdversarialImputer,
        validation: &Dataset,
    ) -> f64 {
        let eta_ref = 2.0 * self.zeta / self.n0 as f64;
        let d = self.mc_distances(imp, validation, 0.0, eta_ref);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Empirical `P(D(θ_n, θ_N) ≤ ε)` at sample size `n`, calibrated.
    pub fn prob_within_epsilon(
        &self,
        imp: &mut dyn AdversarialImputer,
        validation: &Dataset,
        n: usize,
    ) -> f64 {
        let eta_n = self.zeta * (1.0 / self.n0 as f64 - 1.0 / n as f64).max(0.0);
        let eta_gap = self.zeta * (1.0 / n as f64 - 1.0 / self.n_total as f64).max(0.0);
        let dists = self.mc_distances(imp, validation, eta_n, eta_gap);
        let hits = dists
            .iter()
            .filter(|&&d| d * self.calibration <= self.cfg.epsilon)
            .count();
        hits as f64 / self.cfg.k.max(1) as f64
    }

    /// Binary search for the minimum `n*` whose empirical probability
    /// clears the Proposition-2 threshold (Algorithm 1 line 3).
    pub fn estimate(&self, imp: &mut dyn AdversarialImputer, validation: &Dataset) -> SseResult {
        let start = std::time::Instant::now();
        let threshold = self.cfg.acceptance_threshold();
        let mut probes = 0usize;
        let mut trace: Vec<SseProbe> = Vec::new();
        let mut cache: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        let mut prob_at = |n: usize,
                           imp: &mut dyn AdversarialImputer,
                           probes: &mut usize,
                           trace: &mut Vec<SseProbe>|
         -> f64 {
            if let Some(&pr) = cache.get(&n) {
                return pr;
            }
            *probes += 1;
            self.telemetry.incr(Counter::SseProbes);
            let pr = self.prob_within_epsilon(imp, validation, n);
            cache.insert(n, pr);
            let accepted = pr >= threshold;
            self.telemetry.push_series(Series::SseProbeN, n as f64);
            self.telemetry.push_series(Series::SseProbeProb, pr);
            self.telemetry.record_event(Event::SseProbe {
                n: n as u64,
                prob: pr,
                accepted,
            });
            trace.push(SseProbe {
                n,
                prob: pr,
                accepted,
            });
            pr
        };

        let (n_star, prob) = if prob_at(self.n0, imp, &mut probes, &mut trace) >= threshold {
            (self.n0, cache[&self.n0])
        } else if prob_at(self.n_total, imp, &mut probes, &mut trace) < threshold {
            // even the full dataset misses ε — degrade to "use everything"
            (self.n_total, cache[&self.n_total])
        } else {
            let (mut lo, mut hi) = (self.n0, self.n_total);
            let granularity = self
                .cfg
                .granularity
                .unwrap_or((self.n_total / 200).max(1))
                .max(1);
            while hi - lo > granularity {
                // deadline: stop refining and keep the smallest *accepted*
                // candidate seen so far (`hi` is always accepted here, so
                // the early answer stays conservative-correct)
                if self.deadline.expired() {
                    break;
                }
                let mid = lo + (hi - lo) / 2;
                if prob_at(mid, imp, &mut probes, &mut trace) >= threshold {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            (hi, prob_at(hi, imp, &mut probes, &mut trace))
        };

        SseResult {
            n_star,
            prob_at_n_star: prob,
            probes,
            calibration: self.calibration,
            duration: start.elapsed(),
            trace,
        }
    }
}

/// Convenience wrapper retaining the original free-function interface
/// (uncalibrated; the pipeline uses [`SseEstimator`] directly so it can
/// inject the sibling-model calibration).
#[allow(clippy::too_many_arguments)]
pub fn estimate_min_sample_size(
    imp: &mut dyn AdversarialImputer,
    validation: &Dataset,
    fisher_diag: &[f64],
    n0: usize,
    n_total: usize,
    cfg: &SseConfig,
    rng: &mut Rng64,
) -> SseResult {
    let d = validation.n_features();
    let est = SseEstimator::new(imp, fisher_diag, n0, n_total, d, *cfg, rng);
    est.estimate(imp, validation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_data::missing::inject_mcar;
    use scis_imputers::{GainImputer, TrainConfig};
    use scis_tensor::Matrix;

    fn setup(seed: u64) -> (GainImputer, Dataset, Rng64) {
        let mut rng = Rng64::seed_from_u64(seed);
        let complete = Matrix::from_fn(300, 4, |_, _| rng.uniform());
        let ds = inject_mcar(&complete, 0.3, &mut rng);
        let mut gain = GainImputer::new(TrainConfig::fast_test());
        gain.init_networks(4, &mut rng);
        (gain, ds, rng)
    }

    fn diag_for(gain: &mut GainImputer, ds: &Dataset, rng: &mut Rng64) -> Vec<f64> {
        let opts = SinkhornOptions {
            lambda: 0.1,
            max_iters: 100,
            tol: 1e-7,
            ..Default::default()
        };
        fisher_diagonal(
            gain,
            ds,
            &opts,
            64,
            &EscalationPolicy::none(),
            &Telemetry::off(),
            &DualCache::off(),
            crate::dim::AccelConfig::default(),
            rng,
        )
    }

    #[test]
    fn nan_fisher_entries_do_not_panic_probe_scaling() {
        // regression: a NaN in the Fisher diagonal (a pathological gradient
        // that slipped past the batch filters) reached the probe-scale
        // median sort, whose partial_cmp().expect("finite scales")
        // comparator panicked. total_cmp sorts the NaN scale last; the
        // median stays finite and the estimator still runs end to end.
        let (mut gain, ds, mut rng) = setup(31);
        let mut diag = diag_for(&mut gain, &ds, &mut rng);
        diag[1] = f64::NAN;
        let cfg = SseConfig {
            k: 4,
            calibrate: false,
            ..Default::default()
        };
        let est = SseEstimator::new(&mut gain, &diag, 50, 300, 4, cfg, &mut rng);
        let res = est.estimate(&mut gain, &ds);
        assert!(res.n_star >= 50 && res.n_star <= 300);
    }

    #[test]
    fn zeta_matches_theorem_formula() {
        let cfg = SseConfig::default();
        // d = 9 → ⌊d/2⌋ = 4; λ = 130
        let z = cfg.zeta(9);
        let expect = (6.0f64 / 130.0).exp() * (1.0 + 130.0f64.powi(-4)).powi(2);
        assert!((z - expect).abs() < 1e-12);
        // tiny λ explodes but is capped
        let tiny = SseConfig {
            zeta_lambda: 0.1,
            ..Default::default()
        };
        assert_eq!(tiny.zeta(20), 1e12);
    }

    #[test]
    fn acceptance_threshold_clamps_to_one_with_paper_constants() {
        let cfg = SseConfig::default();
        assert_eq!(cfg.acceptance_threshold(), 1.0);
        // a generous k makes the threshold drop below 1
        let big_k = SseConfig {
            k: 2000,
            ..Default::default()
        };
        assert!(big_k.acceptance_threshold() < 1.0);
    }

    #[test]
    fn fisher_diagonal_is_nonnegative_and_sized() {
        let (mut gain, ds, mut rng) = setup(1);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        assert_eq!(
            diag.len(),
            scis_imputers::AdversarialImputer::generator_mut(&mut gain).num_params()
        );
        assert!(diag.iter().all(|&v| v >= 0.0));
        assert!(diag.iter().any(|&v| v > 0.0), "all-zero Fisher diagonal");
    }

    #[test]
    fn model_distance_is_zero_for_identical_parameters() {
        let (mut gain, ds, mut rng) = setup(2);
        let _ = &mut rng;
        let theta = scis_imputers::AdversarialImputer::generator_mut(&mut gain).param_vector();
        assert_eq!(model_distance(&mut gain, &ds, &theta, &theta), 0.0);
        // distance grows with the perturbation
        let mut t2 = theta.clone();
        for v in &mut t2 {
            *v += 0.05;
        }
        let mut t3 = theta.clone();
        for v in &mut t3 {
            *v += 0.5;
        }
        let d_small = model_distance(&mut gain, &ds, &theta, &t2);
        let d_large = model_distance(&mut gain, &ds, &theta, &t3);
        assert!(d_small > 0.0);
        assert!(d_large > d_small, "{} vs {}", d_large, d_small);
    }

    #[test]
    fn loose_epsilon_accepts_the_initial_size() {
        let (mut gain, ds, mut rng) = setup(3);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let cfg = SseConfig {
            epsilon: 10.0,
            ..Default::default()
        }; // anything passes
        let res = estimate_min_sample_size(&mut gain, &ds, &diag, 50, 300, &cfg, &mut rng);
        assert_eq!(res.n_star, 50);
        assert_eq!(res.prob_at_n_star, 1.0);
    }

    #[test]
    fn tight_epsilon_demands_more_samples() {
        let (mut gain, ds, mut rng) = setup(4);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let mut sizes = Vec::new();
        for eps in [3e-2, 3e-3, 3e-4] {
            let cfg = SseConfig {
                epsilon: eps,
                ..Default::default()
            };
            sizes.push(
                estimate_min_sample_size(&mut gain, &ds, &diag, 50, 300, &cfg, &mut rng).n_star,
            );
        }
        assert!(
            sizes[0] <= sizes[1] && sizes[1] <= sizes[2],
            "sizes {:?}",
            sizes
        );
        // the sweep actually exercises the interior, not just endpoints
        assert!(sizes[0] < 300, "loosest ε already saturated: {:?}", sizes);
    }

    #[test]
    fn calibration_scales_the_distances() {
        let (mut gain, ds, mut rng) = setup(5);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let cfg = SseConfig {
            epsilon: 5e-3,
            ..Default::default()
        };
        let mut est = SseEstimator::new(&mut gain, &diag, 50, 300, 4, cfg, &mut rng);
        let n_star_raw = est.estimate(&mut gain, &ds).n_star;
        // a huge γ makes every distance exceed ε → n* = N
        est.set_calibration(1e6);
        let n_star_big = est.estimate(&mut gain, &ds).n_star;
        assert!(n_star_big >= n_star_raw);
        assert_eq!(n_star_big, 300);
        // a tiny γ makes everything pass → n* = n0
        est.set_calibration(1e-9);
        assert_eq!(est.estimate(&mut gain, &ds).n_star, 50);
    }

    #[test]
    fn estimate_records_probe_trace_and_counters() {
        let (mut gain, ds, mut rng) = setup(10);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let cfg = SseConfig {
            epsilon: 5e-3,
            ..Default::default()
        };
        let mut est = SseEstimator::new(&mut gain, &diag, 50, 300, 4, cfg, &mut rng);
        let tel = scis_telemetry::Telemetry::collecting();
        est.set_telemetry(tel.clone());
        let res = est.estimate(&mut gain, &ds);
        assert_eq!(res.trace.len(), res.probes, "one trace entry per probe");
        assert!(!res.trace.is_empty());
        // the chosen n* must have been probed (cache hits are not re-logged)
        assert!(res.trace.iter().any(|p| p.n == res.n_star));
        assert_eq!(tel.counter(Counter::SseProbes), res.probes as u64);
        assert_eq!(
            tel.counter(Counter::SseMcEvals),
            (res.probes * cfg.k) as u64
        );
    }

    #[test]
    fn reference_distance_is_positive_and_linear_regime() {
        let (mut gain, ds, mut rng) = setup(6);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let est = SseEstimator::new(&mut gain, &diag, 50, 300, 4, SseConfig::default(), &mut rng);
        let r = est.reference_mc_distance(&mut gain, &ds);
        assert!(r > 0.0 && r.is_finite());
        // probe_std-normalized perturbations must not saturate the sigmoid
        // head: reference distances stay well below the 0.5 saturation level
        assert!(r < 0.3, "reference distance {} suggests saturation", r);
    }

    #[test]
    fn restores_theta0_after_estimation() {
        let (mut gain, ds, mut rng) = setup(7);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let before = scis_imputers::AdversarialImputer::generator_mut(&mut gain).param_vector();
        let cfg = SseConfig {
            epsilon: 0.01,
            ..Default::default()
        };
        let _ = estimate_min_sample_size(&mut gain, &ds, &diag, 50, 300, &cfg, &mut rng);
        let after = scis_imputers::AdversarialImputer::generator_mut(&mut gain).param_vector();
        assert_eq!(before, after);
    }

    #[test]
    fn n_star_stays_in_range() {
        let (mut gain, ds, mut rng) = setup(8);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        for &eps in &[1e-6, 1e-3, 1e-2, 1.0] {
            let cfg = SseConfig {
                epsilon: eps,
                ..Default::default()
            };
            let res = estimate_min_sample_size(&mut gain, &ds, &diag, 40, 300, &cfg, &mut rng);
            assert!(
                (40..=300).contains(&res.n_star),
                "n* = {} for ε = {}",
                res.n_star,
                eps
            );
        }
    }

    #[test]
    fn probability_is_monotone_in_n() {
        let (mut gain, ds, mut rng) = setup(9);
        let diag = diag_for(&mut gain, &ds, &mut rng);
        let cfg = SseConfig {
            epsilon: 0.005,
            ..Default::default()
        };
        let est = SseEstimator::new(&mut gain, &diag, 40, 400, 4, cfg, &mut rng);
        let mut prev = -1.0;
        for n in [40usize, 80, 160, 320, 400] {
            let p = est.prob_within_epsilon(&mut gain, &ds, n);
            assert!(
                p >= prev - 1e-12,
                "P̂ not monotone at n={}: {} < {}",
                n,
                p,
                prev
            );
            prev = p;
        }
    }
}
