//! DIM — Differentiable Imputation Modeling (paper §IV).
//!
//! Converts a GAN-based imputer into a differentiable one by replacing its
//! JS-divergence adversarial loss with the masking Sinkhorn divergence:
//! per mini-batch, the generator reconstructs `X̄` and descends the gradient
//! of `L_s = S_m(X̄⊙M ‖ X⊙M) / (2n)` (Proposition 1), plus GAIN's
//! observed-cell reconstruction anchor `α·MSE(M⊙X, M⊙X̄)` which the wrapped
//! models already carry.
//!
//! Two variants of the adversarial game:
//! * **data-space** (default) — the MS divergence is computed directly on
//!   the masked batch; there is no discriminator at all. Stable, fast, and
//!   the configuration every table in the reproduction uses.
//! * **critic** — §IV.B's "discriminator maximizes the MS divergence"
//!   literally: a small embedding network `φ` defines the transport cost
//!   `‖φ(x̄ᵢ⊙mᵢ,mᵢ) − φ(xⱼ⊙mⱼ,mⱼ)‖²`; `φ` takes ascent steps on `S_m^φ`
//!   while the generator descends it. Costlier and noisier — kept as an
//!   ablation (see DESIGN.md §3 and the `dim_critic` bench).

use crate::checkpoint::{CheckpointPolicy, TrainCheckpoint};
use crate::error::{FailureReason, TrainPhase, TrainingError, POST_MORTEM_TAIL};
use crate::guard::{GuardConfig, GuardStats, GuardVerdict, TrainingGuard};
use scis_data::Dataset;
use scis_imputers::{AdversarialImputer, TrainConfig};
use scis_nn::loss::weighted_mse;
use scis_nn::{Activation, Adam, Mlp, Mode, Optimizer};
use scis_ot::grad::{cross_ot_grad, self_ot_grad};
use scis_ot::{
    masked_sq_cost_decomposed_p, masked_sq_cost_with, ms_loss_grad, sliced_w2_loss_grad, solve,
    AccelContext, DualCache, EscalationPolicy, MaskedRows, SinkhornOptions, SlicedOptions,
    SolveStats, Start,
};
use scis_telemetry::{Counter, Event, Hist, Series, Telemetry};
use scis_tensor::ops::pairwise_sq_dists;
use scis_tensor::{ExecPolicy, Matrix, Rng64, RunDeadline};

/// Mirrors one batch's Sinkhorn solve accounting into the telemetry
/// counters, the per-solve iteration histogram, and — when escalations
/// fired — the flight-recorder event stream (the cross-layer channel;
/// `GuardStats.sinkhorn` keeps the value-flow copy).
pub(crate) fn record_solve_stats(tel: &Telemetry, s: SolveStats) {
    tel.add(Counter::SinkhornSolves, s.solves as u64);
    tel.add(Counter::SinkhornIterations, s.iterations as u64);
    tel.add(Counter::SinkhornConverged, s.converged as u64);
    tel.add(Counter::SinkhornEscalations, s.escalations as u64);
    tel.add(Counter::SinkhornUnconverged, s.unconverged as u64);
    tel.add(Counter::WarmStartHits, s.warm_starts as u64);
    tel.add(Counter::ItersSaved, s.iters_saved as u64);
    for &iters in s.tracked_iters() {
        tel.record_hist(Hist::SinkhornSolveIters, iters as u64);
    }
    if s.escalations > 0 {
        tel.record_event(Event::SinkhornEscalation {
            count: s.escalations as u64,
        });
    }
}

/// Sinkhorn hot-path acceleration knobs, all off by default. Each flag
/// changes how a solve starts or what it sweeps, never the one sweep loop
/// that runs it, so results agree with the default path within the solver
/// tolerance (or, for `f32_compute`, the `f32` input rounding) and stay
/// bit-identical across thread counts for a fixed configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelConfig {
    /// Warm-start each batch's Sinkhorn solves from the previous epoch's
    /// dual potentials (row-keyed [`DualCache`]; invalidated on rollback).
    pub warm_start: bool,
    /// Build masked cost matrices with the decomposed GEMM kernel
    /// (`‖aᵢ‖² + ‖bⱼ‖² − 2·(AM)(BM)ᵀ`) instead of the scalar distance loop,
    /// caching the constant data side across epochs.
    pub decomposed_cost: bool,
    /// Anneal cold solves (first epoch, post-rollback) through ε-scaling.
    pub eps_scale_cold: bool,
    /// Run the compute hot loops (GEMM, Sinkhorn sweeps) with `f32` operand
    /// storage, `f64` accumulation, and the polynomial `fast_exp` in the
    /// sweeps — see `scis_tensor::Precision::F32`. The loops are the default
    /// path's; results differ from it by input rounding only, and stay
    /// bit-identical across thread counts for a fixed configuration.
    pub f32_compute: bool,
}

impl AccelConfig {
    /// Everything except `f32_compute` on — the full-precision accelerated
    /// configuration the bench suite has historically measured.
    pub fn all() -> Self {
        Self {
            warm_start: true,
            decomposed_cost: true,
            eps_scale_cold: true,
            f32_compute: false,
        }
    }

    /// Everything on, including the `f32` compute mode.
    pub fn all_f32() -> Self {
        Self {
            f32_compute: true,
            ..Self::all()
        }
    }

    /// Compute precision implied by the flags.
    pub fn precision(&self) -> scis_tensor::Precision {
        if self.f32_compute {
            scis_tensor::Precision::F32
        } else {
            scis_tensor::Precision::F64
        }
    }

    /// Fluent setter for [`AccelConfig::warm_start`].
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Fluent setter for [`AccelConfig::decomposed_cost`].
    pub fn decomposed_cost(mut self, on: bool) -> Self {
        self.decomposed_cost = on;
        self
    }

    /// Fluent setter for [`AccelConfig::eps_scale_cold`].
    pub fn eps_scale_cold(mut self, on: bool) -> Self {
        self.eps_scale_cold = on;
        self
    }

    /// Fluent setter for [`AccelConfig::f32_compute`].
    pub fn f32_compute(mut self, on: bool) -> Self {
        self.f32_compute = on;
        self
    }
}

/// How the Sinkhorn regularization λ is chosen per batch.
#[derive(Debug, Clone, Copy)]
pub enum LambdaMode {
    /// Fixed λ (the paper's experiments use 130 — diffuse-plan regime).
    Absolute(f64),
    /// λ = factor × mean entry of the batch cost matrix; adapts to the
    /// dataset's dimensionality and missing rate.
    Relative(f64),
}

/// Critic ("discriminator") settings for the adversarial MS game.
#[derive(Debug, Clone, Copy)]
pub struct CriticConfig {
    /// Embedding dimensionality of φ.
    pub embed_dim: usize,
    /// Hidden width of φ.
    pub hidden: usize,
    /// Critic learning rate.
    pub learning_rate: f64,
}

impl Default for CriticConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            hidden: 32,
            learning_rate: 1e-3,
        }
    }
}

/// Which distributional loss drives the generator (ablation knob; the
/// paper's DIM is the masking Sinkhorn divergence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenerativeLoss {
    /// The paper's masking Sinkhorn divergence (Definitions 2–4).
    MaskedSinkhorn,
    /// Masked sliced-Wasserstein distance — solver-free alternative used
    /// by the `ablation_dim` bench to quantify what the transport plan
    /// buys.
    SlicedWasserstein {
        /// Number of random projections.
        n_projections: usize,
    },
}

/// DIM training configuration.
#[derive(Debug, Clone, Copy)]
pub struct DimConfig {
    /// Epoch/batch/learning-rate schedule (paper defaults).
    pub train: TrainConfig,
    /// λ selection; `Relative(0.1)` by default (DESIGN.md §6 explains the
    /// deviation from the paper's absolute 130).
    pub lambda: LambdaMode,
    /// Sinkhorn iteration caps.
    pub max_sinkhorn_iters: usize,
    /// Reconstruction anchor weight α (same role as GAIN's α).
    pub alpha: f64,
    /// Optional adversarial critic; `None` = data-space divergence.
    pub critic: Option<CriticConfig>,
    /// Distributional loss (ablation; default = the paper's MS divergence).
    pub loss: GenerativeLoss,
    /// Execution policy for the generator's matmuls, cost builds, and
    /// Sinkhorn sweeps. Bit-identical results under any policy.
    pub exec: ExecPolicy,
    /// Sinkhorn hot-path acceleration (warm-start dual cache, decomposed
    /// cost kernel, ε-scaled cold solves). Off by default.
    pub accel: AccelConfig,
}

impl Default for DimConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            lambda: LambdaMode::Relative(0.1),
            max_sinkhorn_iters: 200,
            alpha: 10.0,
            critic: None,
            loss: GenerativeLoss::MaskedSinkhorn,
            exec: ExecPolicy::default(),
            accel: AccelConfig::default(),
        }
    }
}

impl DimConfig {
    /// Resolves λ for a concrete cost matrix.
    pub fn resolve_lambda(&self, cost: &Matrix) -> f64 {
        match self.lambda {
            LambdaMode::Absolute(l) => l,
            LambdaMode::Relative(f) => {
                let mean = cost.mean();
                (f * mean).max(1e-6)
            }
        }
    }

    fn sinkhorn_options(&self, lambda: f64) -> SinkhornOptions {
        // `DimConfig` is `Copy`, so the (non-`Copy`) run deadline is not
        // stored here — the train loop attaches it per solve via
        // `SinkhornOptions::deadline`.
        SinkhornOptions {
            lambda,
            max_iters: self.max_sinkhorn_iters,
            tol: 1e-8,
            exec: self.exec,
            deadline: scis_tensor::RunDeadline::none(),
            precision: self.accel.precision(),
        }
    }

    /// Fluent setter for [`DimConfig::train`].
    pub fn train(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Fluent setter for [`DimConfig::lambda`].
    pub fn lambda(mut self, lambda: LambdaMode) -> Self {
        self.lambda = lambda;
        self
    }

    /// Fluent setter for [`DimConfig::max_sinkhorn_iters`].
    pub fn max_sinkhorn_iters(mut self, max_iters: usize) -> Self {
        self.max_sinkhorn_iters = max_iters;
        self
    }

    /// Fluent setter for [`DimConfig::alpha`].
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Fluent setter for [`DimConfig::critic`].
    pub fn critic(mut self, critic: Option<CriticConfig>) -> Self {
        self.critic = critic;
        self
    }

    /// Fluent setter for [`DimConfig::loss`].
    pub fn loss(mut self, loss: GenerativeLoss) -> Self {
        self.loss = loss;
        self
    }

    /// Fluent setter for [`DimConfig::exec`].
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Fluent setter for [`DimConfig::accel`].
    pub fn accel(mut self, accel: AccelConfig) -> Self {
        self.accel = accel;
        self
    }
}

/// Outcome of a DIM training run.
#[derive(Debug, Clone)]
pub struct DimReport {
    /// MS-divergence loss after each epoch (mean over batches).
    pub epoch_losses: Vec<f64>,
    /// The λ actually used on the last batch (diagnostics).
    pub last_lambda: f64,
    /// Wall-clock training duration.
    pub duration: std::time::Duration,
}

impl DimReport {
    /// Final epoch loss (NaN if training never ran).
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// The critic network φ plus its optimizer.
struct Critic {
    net: Mlp,
    opt: Adam,
}

impl Critic {
    fn new(input_dim: usize, cfg: &CriticConfig, rng: &mut Rng64) -> Self {
        let net = Mlp::builder(input_dim)
            .dense(cfg.hidden, Activation::LeakyRelu)
            .dense(cfg.embed_dim, Activation::Identity)
            .build(rng);
        Self {
            net,
            opt: Adam::new(cfg.learning_rate),
        }
    }
}

/// Everything about one DIM training run beyond the model, the data and
/// the [`DimConfig`]: the guard, the Algorithm-1 phase being trained, the
/// telemetry collector, the dual cache and the four robustness hooks.
/// [`TrainRun::default`] is a plain guarded run: default guard, initial
/// phase, telemetry off, a fresh cache per [`AccelConfig::warm_start`], and
/// no checkpoint, resume, deadline or heartbeat.
#[derive(Debug, Clone)]
pub struct TrainRun<'a> {
    /// Fault-tolerance knobs (see [`crate::guard`] module docs for the three
    /// recovery rings).
    pub guard: GuardConfig,
    /// The Algorithm-1 phase being trained; tags errors, events and
    /// checkpoints, and selects which checkpoint `resume` applies to.
    pub phase: TrainPhase,
    /// Epochs, applied and skipped batches, guard events and per-solve
    /// Sinkhorn accounting are mirrored here. Recording is
    /// determinism-neutral: it never reads the RNG or the numeric path, and
    /// every counted event happens at the same logical point under any
    /// [`ExecPolicy`], so counter totals are bit-identical between serial
    /// and threaded runs.
    pub telemetry: Telemetry,
    /// The dual cache every Sinkhorn solve goes through. `None` builds a
    /// fresh one for this run from [`AccelConfig::warm_start`]; the pipeline
    /// passes its own so the SSE Fisher probe can reuse the warm duals
    /// read-only afterwards. It is invalidated on every guard rollback:
    /// after the parameters rewind, cached duals describe a generator state
    /// that no longer exists.
    pub cache: Option<&'a DualCache>,
    /// Write a [`TrainCheckpoint`] at epoch boundaries under this policy,
    /// plus an emergency checkpoint on terminal failure or deadline expiry.
    pub checkpoint: Option<&'a CheckpointPolicy>,
    /// Fast-forward to this checkpoint when its phase matches the phase
    /// being trained (phases before it replay normally; the deterministic
    /// replay regenerates their state bit-exactly).
    pub resume: Option<&'a TrainCheckpoint>,
    /// Cooperative cancellation, polled at epoch, batch, and Sinkhorn-sweep
    /// boundaries. On expiry training stops gracefully: the generator is
    /// rewound to the last completed epoch boundary (matching the emergency
    /// checkpoint written at the same moment) and a partial report returns.
    pub deadline: RunDeadline,
    /// JSONL progress stream, polled at the same epoch and batch
    /// boundaries as `deadline`. Read-only observability: emission never
    /// touches the RNG streams or the model, so the trained parameters are
    /// bit-identical with the hook attached or absent.
    pub heartbeat: crate::heartbeat::HeartbeatHook,
}

impl Default for TrainRun<'_> {
    fn default() -> Self {
        Self {
            guard: GuardConfig::default(),
            phase: TrainPhase::Initial,
            telemetry: Telemetry::off(),
            cache: None,
            checkpoint: None,
            resume: None,
            deadline: RunDeadline::none(),
            heartbeat: Default::default(),
        }
    }
}

/// A fresh dual cache for one training phase: enabled under
/// [`AccelConfig::warm_start`], off otherwise. Each phase gets its *own*
/// cache: entries are keyed by dataset-local row index, and the phases
/// train on different row sets (X0, the sibling sample, X*), so sharing
/// would alias unrelated rows.
pub(crate) fn phase_cache(accel: AccelConfig) -> DualCache {
    if accel.warm_start {
        DualCache::enabled()
    } else {
        DualCache::off()
    }
}

fn all_finite(m: &Matrix) -> bool {
    m.as_slice().iter().all(|v| v.is_finite())
}

/// Snapshots the full train-loop state at an epoch boundary. Read-only —
/// never draws from the RNG — so capturing is determinism-neutral.
fn capture_boundary(
    imp: &mut dyn AdversarialImputer,
    phase: TrainPhase,
    epoch: usize,
    opt_g: &Adam,
    guard: &TrainingGuard,
    stats: &GuardStats,
    rng: &Rng64,
) -> TrainCheckpoint {
    TrainCheckpoint {
        phase,
        epoch,
        rng: rng.state(),
        adam: opt_g.state(),
        gen_params: imp.generator_mut().param_vector(),
        disc_params: imp.discriminator_mut().map(|d| d.param_vector()),
        guard_best_params: guard.best_params().to_vec(),
        guard_best_loss: guard.best_loss(),
        guard_lr: guard.lr(),
        guard_retries: guard.retries(),
        stats: *stats,
    }
}

/// Writes a checkpoint, mirroring the outcome into telemetry. IO failure is
/// counted ([`Counter::CheckpointFailures`]) but never aborts training — a
/// full disk must not kill an otherwise healthy run.
fn write_checkpoint(
    policy: &CheckpointPolicy,
    ckpt: &TrainCheckpoint,
    emergency: bool,
    tel: &Telemetry,
) {
    let outcome = if emergency {
        policy.write_emergency(ckpt)
    } else {
        policy.write_periodic(ckpt)
    };
    match outcome {
        Ok(_) => {
            tel.incr(Counter::CheckpointsWritten);
            tel.record_event(Event::Checkpoint {
                phase: ckpt.phase.name(),
                epoch: ckpt.epoch as u32,
                emergency,
            });
        }
        Err(_) => tel.incr(Counter::CheckpointFailures),
    }
}

/// Trains (or continues training) the generator of `imp` on `ds` under the
/// MS-divergence loss. Networks must already be initialized for a warm
/// start; otherwise they are initialized here.
///
/// **Fault tolerance** — on the healthy path the guard is invisible: it
/// only reads losses and parameters, never the RNG, so seeds reproduce.
/// Recovery accounting accumulates into `stats`; a terminal failure returns
/// a [`TrainingError`] with the generator left on its best snapshot, so
/// callers may still impute with it.
///
/// **Resume contract** — resuming a checkpoint written at epoch `k`
/// produces, for the remaining epochs, a parameter/RNG trajectory
/// bit-identical to the uninterrupted run's: setup replays the same RNG
/// draws as the original (network init, critic init), the checkpoint then
/// restores parameters, Adam moments, guard state, and finally the RNG
/// stream position, so epoch `k` onward recomputes the identical numbers.
/// The contract holds for the default configuration (no critic — a critic's
/// own optimizer state is not checkpointed). See DESIGN.md §14.
pub fn train_dim(
    imp: &mut dyn AdversarialImputer,
    ds: &Dataset,
    cfg: &DimConfig,
    run: &TrainRun<'_>,
    stats: &mut GuardStats,
    rng: &mut Rng64,
) -> Result<DimReport, TrainingError> {
    let own_cache;
    let cache = match run.cache {
        Some(cache) => cache,
        None => {
            own_cache = phase_cache(cfg.accel);
            &own_cache
        }
    };
    let (phase, tel) = (run.phase, &run.telemetry);
    let start = std::time::Instant::now();
    let d = ds.n_features();
    if !imp.is_initialized(d) {
        imp.init_networks(d, rng);
    }
    imp.generator_mut().set_exec(cfg.exec);
    imp.generator_mut().set_precision(cfg.accel.precision());
    let n = ds.n_samples();
    let x = ds.values_filled(0.0);
    let mask = ds.dense_mask();
    let mut opt_g = Adam::new(cfg.train.learning_rate);
    let mut critic = cfg.critic.as_ref().map(|c| {
        let mut critic = Critic::new(2 * d, c, rng);
        critic.net.set_exec(cfg.exec);
        critic.net.set_precision(cfg.accel.precision());
        critic
    });
    let bs = cfg.train.batch_size.min(n).max(2);
    // constant across epochs: only the generator side X̄ changes per batch,
    // so the data side's masked rows + row norms are gathered, not rebuilt
    let data_masked = cfg
        .accel
        .decomposed_cost
        .then(|| MaskedRows::new(&x, &mask));

    let mut guard = TrainingGuard::new(
        run.guard,
        imp.generator_mut().param_vector(),
        cfg.train.learning_rate,
    );
    let mut epoch_losses = Vec::with_capacity(cfg.train.epochs);
    let mut last_lambda = f64::NAN;
    let mut epoch = 0usize;

    // --- resume fast-forward -------------------------------------------
    // Setup above consumed the same RNG draws as the original run; now
    // overwrite everything the checkpoint captured. The RNG restore comes
    // last so the stream continues exactly where the checkpoint cut it.
    if let Some(ckpt) = run.resume.filter(|c| c.phase == phase) {
        let expected = imp.generator_mut().param_vector().len();
        if ckpt.gen_params.len() != expected {
            return Err(TrainingError {
                phase,
                epoch: ckpt.epoch,
                retries: 0,
                reason: FailureReason::ResumeMismatch {
                    expected,
                    actual: ckpt.gen_params.len(),
                },
                post_mortem: tel.event_tail(POST_MORTEM_TAIL),
            });
        }
        imp.generator_mut().set_param_vector(&ckpt.gen_params);
        if let Some(saved) = &ckpt.disc_params {
            if let Some(disc) = imp.discriminator_mut() {
                if disc.param_vector().len() == saved.len() {
                    disc.set_param_vector(saved);
                }
            }
        }
        opt_g = Adam::from_state(&ckpt.adam);
        guard = TrainingGuard::restore(
            run.guard,
            ckpt.guard_best_params.clone(),
            ckpt.guard_best_loss,
            ckpt.guard_lr,
            ckpt.guard_retries,
        );
        *stats = ckpt.stats;
        epoch = ckpt.epoch;
        *rng = Rng64::from_state(ckpt.rng);
    }

    // The last clean epoch-boundary snapshot: what periodic checkpoints
    // write, and what both the emergency checkpoint and the in-memory model
    // rewind to when the deadline trips mid-epoch (state past the boundary
    // may already be contaminated by deadline-shortened Sinkhorn solves).
    let hooks_active = run.checkpoint.is_some() || run.deadline.is_some();
    let mut boundary =
        hooks_active.then(|| capture_boundary(imp, phase, epoch, &opt_g, &guard, stats, rng));
    let mut deadline_stop = false;

    while epoch < cfg.train.epochs {
        if run.deadline.expired() {
            deadline_stop = true;
            break;
        }
        let epoch_t0 = tel.is_enabled().then(std::time::Instant::now);
        let order = rng.permutation(n);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut grad_norm_sum = 0.0;
        let mut epoch_sink = SolveStats::default();
        let mut failure: Option<FailureReason> = None;
        for (bi, chunk) in order.chunks(bs).enumerate() {
            if chunk.len() < 2 {
                continue;
            }
            if run.deadline.expired() {
                deadline_stop = true;
                break;
            }
            let batch_t0 = tel.is_enabled().then(std::time::Instant::now);
            let xb = x.select_rows(chunk);
            let mb = mask.select_rows(chunk);
            let g_in = imp.generator_input(&xb, &mb, rng);
            let generator = imp.generator_mut();
            let xbar = generator.forward(&g_in, Mode::Train, rng);
            if !all_finite(&xbar) {
                // a poisoned reconstruction would turn the cost matrix (and
                // the whole Sinkhorn plan) non-finite — drop the batch
                stats.nan_batches_skipped += 1;
                tel.incr(Counter::DimBatchesSkipped);
                tel.record_event(Event::BatchSkipped {
                    epoch: epoch as u32,
                    batch: bi as u32,
                });
                continue;
            }

            let step = match (critic.as_mut(), cfg.loss) {
                (None, GenerativeLoss::MaskedSinkhorn) => {
                    // the cross cost doubles as the λ-resolution input, so it
                    // is built once here and handed to the gradient pass
                    let data_batch = data_masked.as_ref().map(|d| d.select(chunk));
                    let cost = match &data_batch {
                        Some(db) => {
                            let gen_side = MaskedRows::new(&xbar, &mb);
                            masked_sq_cost_decomposed_p(
                                &gen_side,
                                db,
                                cfg.exec,
                                cfg.accel.precision(),
                            )
                        }
                        None => masked_sq_cost_with(&xbar, &mb, &xb, &mb, cfg.exec),
                    };
                    let lambda = cfg.resolve_lambda(&cost);
                    let opts = cfg.sinkhorn_options(lambda).deadline(run.deadline.clone());
                    let ctx = AccelContext {
                        cache,
                        rows: chunk,
                        data_side: data_batch.as_ref(),
                        decomposed_cost: cfg.accel.decomposed_cost,
                        eps_scale_cold: cfg.accel.eps_scale_cold,
                        store: true,
                    };
                    let policy = &run.guard.sinkhorn_escalation;
                    let result = ms_loss_grad(&xbar, &xb, &mb, &opts, policy, &ctx, Some(cost));
                    match result {
                        Ok((loss, grad, solve_stats)) => {
                            stats.sinkhorn.absorb(solve_stats);
                            epoch_sink.absorb(solve_stats);
                            record_solve_stats(tel, solve_stats);
                            Some((loss, grad, lambda))
                        }
                        Err(_) => None,
                    }
                }
                (None, GenerativeLoss::SlicedWasserstein { n_projections }) => {
                    let opts = SlicedOptions {
                        n_projections,
                        seed: 0x51CE,
                    };
                    let (loss, grad) = sliced_w2_loss_grad(&xbar, &xb, &mb, &opts);
                    Some((loss, grad, f64::NAN))
                }
                (Some(c), _) => critic_step(c, &xbar, &xb, &mb, cfg, rng),
            };
            let Some((loss, mut grad_xbar, lambda)) = step else {
                stats.nan_batches_skipped += 1;
                tel.incr(Counter::DimBatchesSkipped);
                tel.record_event(Event::BatchSkipped {
                    epoch: epoch as u32,
                    batch: bi as u32,
                });
                continue;
            };
            if !loss.is_finite() || !all_finite(&grad_xbar) {
                stats.nan_batches_skipped += 1;
                tel.incr(Counter::DimBatchesSkipped);
                tel.record_event(Event::BatchSkipped {
                    epoch: epoch as u32,
                    batch: bi as u32,
                });
                continue;
            }
            // a solve that raced the deadline may have been truncated
            // mid-sweep — stop before applying a contaminated gradient
            if run.deadline.expired() {
                deadline_stop = true;
                break;
            }
            last_lambda = lambda;

            // reconstruction anchor on observed cells
            let (rec_loss, rec_grad) = weighted_mse(&xbar, &xb, &mb);
            grad_xbar.axpy(cfg.alpha, &rec_grad);
            let grad_norm = grad_xbar.frobenius_norm();
            if !grad_norm.is_finite() || grad_norm > run.guard.max_grad_norm {
                failure = Some(FailureReason::ExplodingGradient { norm: grad_norm });
                break;
            }

            let generator = imp.generator_mut();
            // re-forward so the generator's caches match this batch (the
            // critic path may have run other forwards in between)
            let _ = generator.forward(&g_in, Mode::Train, rng);
            generator.zero_grad();
            generator.backward(&grad_xbar);
            opt_g.step(generator);

            epoch_loss += loss + cfg.alpha * rec_loss;
            grad_norm_sum += grad_norm;
            batches += 1;
            tel.incr(Counter::DimBatches);
            if let Some(t0) = batch_t0 {
                tel.record_hist_duration(Hist::BatchStepNanos, t0.elapsed());
            }
            // fine-grained progress: silent unless a positive interval is
            // configured and due (module docs of `heartbeat`)
            run.heartbeat.poll_fine(&crate::heartbeat::Progress {
                phase: phase.name(),
                epoch: epoch as u64,
                epochs: cfg.train.epochs as u64,
                shard: 0,
                shards: 0,
                rows_done: (epoch * n + bi * bs + chunk.len()) as u64,
                rows_total: (cfg.train.epochs * n) as u64,
                rollbacks: stats.rollbacks as u64,
                warm_hit_rate: if epoch_sink.solves > 0 {
                    epoch_sink.warm_starts as f64 / epoch_sink.solves as f64
                } else {
                    0.0
                },
            });
        }

        if deadline_stop {
            break;
        }
        let mean_loss = epoch_loss / batches.max(1) as f64;
        if failure.is_none() && batches == 0 {
            failure = Some(FailureReason::AllBatchesSkipped);
        }
        if failure.is_none() && !mean_loss.is_finite() {
            failure = Some(FailureReason::NonFiniteLoss);
        }
        let rolled_back = failure.is_some();
        let mut lr_backed_off = false;
        let mut give_up: Option<FailureReason> = None;
        match failure {
            None => {
                epoch_losses.push(mean_loss);
                guard.accept_epoch(mean_loss, &imp.generator_mut().param_vector());
                tel.incr(Counter::DimEpochs);
            }
            Some(reason) => {
                imp.generator_mut().set_param_vector(guard.best_params());
                // parameters rewound → cached duals describe a dead
                // generator state; drop them so retries solve from cold
                cache.invalidate_all();
                stats.rollbacks += 1;
                tel.incr(Counter::GuardRollbacks);
                tel.record_event(Event::Rollback {
                    epoch: epoch as u32,
                    retries: stats.rollbacks as u32,
                });
                if cfg.accel.warm_start {
                    tel.record_event(Event::CacheInvalidation);
                }
                match guard.reject_epoch() {
                    GuardVerdict::GiveUp => give_up = Some(reason),
                    _ => {
                        // retry the epoch from the snapshot at a gentler LR
                        // (fresh optimizer: stale moments reference the
                        // pre-rollback trajectory)
                        stats.lr_backoffs += 1;
                        lr_backed_off = true;
                        tel.incr(Counter::GuardLrBackoffs);
                        opt_g = Adam::new(guard.lr());
                        tel.record_event(Event::LrBackoff {
                            epoch: epoch as u32,
                            lr: guard.lr(),
                        });
                    }
                }
            }
        }
        if tel.is_enabled() {
            // one entry per *attempted* epoch: rolled-back attempts are
            // flagged rather than dropped so a loss spike stays visible.
            // All values are deterministic — bit-identical per ExecPolicy.
            let mean_grad = grad_norm_sum / batches.max(1) as f64;
            let hit_rate = if epoch_sink.solves > 0 {
                epoch_sink.warm_starts as f64 / epoch_sink.solves as f64
            } else {
                0.0
            };
            tel.push_series(Series::DimLoss, mean_loss);
            tel.push_series(Series::GradNorm, mean_grad);
            tel.push_series(Series::LearningRate, guard.lr());
            tel.push_series(Series::SinkhornIters, epoch_sink.iterations as f64);
            tel.push_series(Series::WarmStartHitRate, hit_rate);
            tel.push_series(Series::ItersSaved, epoch_sink.iters_saved as f64);
            tel.push_series(Series::RollbackFlag, rolled_back as u64 as f64);
            tel.push_series(Series::LrBackoffFlag, lr_backed_off as u64 as f64);
            tel.push_series(Series::TrainPhase, phase.code() as f64);
            tel.record_event(Event::EpochEnd {
                phase: phase.name(),
                epoch: epoch as u32,
                loss: mean_loss,
                grad_norm: mean_grad,
                lr: guard.lr(),
                sinkhorn_iters: epoch_sink.iterations as u64,
                warm_hit_rate: hit_rate,
            });
            if let Some(t0) = epoch_t0 {
                tel.record_hist_duration(Hist::EpochWallNanos, t0.elapsed());
            }
        }
        if let Some(reason) = give_up {
            // leave a post-mortem checkpoint next to the structured error:
            // the last clean boundary, with the generator on its best
            // snapshot, is exactly the state a caller would resume from
            if let (Some(policy), Some(b)) = (run.checkpoint, &boundary) {
                write_checkpoint(policy, b, true, tel);
            }
            return Err(TrainingError {
                phase,
                epoch,
                retries: guard.retries() - 1,
                reason,
                post_mortem: tel.event_tail(POST_MORTEM_TAIL),
            });
        }
        if !rolled_back {
            epoch += 1;
        }
        // one heartbeat per attempted epoch (rolled-back attempts report
        // the unchanged completed-epoch count and the bumped rollback total)
        run.heartbeat.poll(&crate::heartbeat::Progress {
            phase: phase.name(),
            epoch: epoch as u64,
            epochs: cfg.train.epochs as u64,
            shard: 0,
            shards: 0,
            rows_done: (epoch * n) as u64,
            rows_total: (cfg.train.epochs * n) as u64,
            rollbacks: stats.rollbacks as u64,
            warm_hit_rate: if epoch_sink.solves > 0 {
                epoch_sink.warm_starts as f64 / epoch_sink.solves as f64
            } else {
                0.0
            },
        });
        if hooks_active {
            boundary = Some(capture_boundary(
                imp, phase, epoch, &opt_g, &guard, stats, rng,
            ));
            if !rolled_back {
                if let (Some(policy), Some(b)) = (run.checkpoint, &boundary) {
                    if epoch.is_multiple_of(policy.every) {
                        write_checkpoint(policy, b, false, tel);
                    }
                }
            }
        }
    }

    if deadline_stop {
        if run.deadline.newly_expired() {
            tel.record_event(Event::DeadlineHit {
                phase: phase.name(),
                epoch: epoch as u32,
            });
        }
        if let Some(b) = &boundary {
            // rewind to the last clean boundary so the in-memory model is
            // exactly the state the emergency checkpoint records
            imp.generator_mut().set_param_vector(&b.gen_params);
            if let Some(policy) = run.checkpoint {
                write_checkpoint(policy, b, true, tel);
            }
        }
    }

    Ok(DimReport {
        epoch_losses,
        last_lambda,
        duration: start.elapsed(),
    })
}

/// One critic-mode step: updates φ by ascent on `S_m^φ` and returns the
/// generator's loss value, the gradient w.r.t. `xbar`, and the λ used.
/// Returns `None` when the critic's embeddings are non-finite (a diverged
/// φ must not feed the Sinkhorn solver) or a solve rejects its cost; the
/// caller skips the batch.
fn critic_step(
    critic: &mut Critic,
    xbar: &Matrix,
    xb: &Matrix,
    mb: &Matrix,
    cfg: &DimConfig,
    rng: &mut Rng64,
) -> Option<(f64, Matrix, f64)> {
    let d = xb.cols();
    let in_a = xbar.hadamard(mb).hcat(mb);
    let in_b = xb.hadamard(mb).hcat(mb);
    let ea = critic.net.forward(&in_a, Mode::Eval, rng);
    let eb = critic.net.forward(&in_b, Mode::Eval, rng);
    if !all_finite(&ea) || !all_finite(&eb) {
        return None;
    }

    let cost_ab = pairwise_sq_dists(&ea, &eb, cfg.exec);
    let lambda = cfg.resolve_lambda(&cost_ab);
    let opts = cfg.sinkhorn_options(lambda);
    let plain = |cost: &Matrix| {
        solve(cost, None, Start::Cold, &opts, &EscalationPolicy::none())
            .ok()
            .map(|(r, _)| r)
    };
    let cost_aa = pairwise_sq_dists(&ea, &ea, cfg.exec);
    let cost_bb = pairwise_sq_dists(&eb, &eb, cfg.exec);
    let cross = plain(&cost_ab)?;
    let self_a = plain(&cost_aa)?;
    let self_b = plain(&cost_bb)?;
    let n = xb.rows() as f64;
    let value = (2.0 * cross.reg_value - self_a.reg_value - self_b.reg_value) / (2.0 * n);

    let ones_a = Matrix::ones(ea.rows(), ea.cols());
    // dS/dEa = 2·∂OT(Ea,Eb) − ∂OT(Ea,Ea); same for Eb by symmetry
    let cross_plan = cross.plan(&cost_ab);
    let mut g_ea = cross_ot_grad(&ea, &eb, &ones_a, &cross_plan).scale(2.0);
    g_ea.axpy(-1.0, &self_ot_grad(&ea, &ones_a, &self_a.plan(&cost_aa)));
    let g_ea = g_ea.scale(1.0 / (2.0 * n));
    let cross_t = cross_plan.transpose();
    let mut g_eb = cross_ot_grad(&eb, &ea, &ones_a, &cross_t).scale(2.0);
    g_eb.axpy(-1.0, &self_ot_grad(&eb, &ones_a, &self_b.plan(&cost_bb)));
    let g_eb = g_eb.scale(1.0 / (2.0 * n));

    // --- critic ascent: maximize S ⇒ descend −S ---
    critic.net.zero_grad();
    let _ = critic.net.forward(&in_a, Mode::Eval, rng);
    critic.net.backward(&g_ea.scale(-1.0));
    let _ = critic.net.forward(&in_b, Mode::Eval, rng);
    critic.net.backward(&g_eb.scale(-1.0));
    critic.opt.step(&mut critic.net);

    // --- generator gradient through the *updated* critic ---
    let ea2 = critic.net.forward(&in_a, Mode::Eval, rng);
    let eb2 = critic.net.forward(&in_b, Mode::Eval, rng);
    if !all_finite(&ea2) || !all_finite(&eb2) {
        return None;
    }
    let cost2 = pairwise_sq_dists(&ea2, &eb2, cfg.exec);
    let cost2_aa = pairwise_sq_dists(&ea2, &ea2, cfg.exec);
    let cross2 = plain(&cost2)?;
    let self_a2 = plain(&cost2_aa)?;
    let mut g_ea2 = cross_ot_grad(&ea2, &eb2, &ones_a, &cross2.plan(&cost2)).scale(2.0);
    g_ea2.axpy(-1.0, &self_ot_grad(&ea2, &ones_a, &self_a2.plan(&cost2_aa)));
    let g_ea2 = g_ea2.scale(1.0 / (2.0 * n));
    critic.net.zero_grad();
    let _ = critic.net.forward(&in_a, Mode::Eval, rng);
    let grad_in_a = critic.net.backward(&g_ea2);
    critic.net.zero_grad(); // φ params must not accumulate from the G pass
    let grad_xbar_masked = grad_in_a.select_cols(&(0..d).collect::<Vec<_>>());
    // input was x̄ ⊙ m ⇒ chain through the mask
    let grad_xbar = grad_xbar_masked.hadamard(mb);

    Some((value, grad_xbar, lambda))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scis_data::metrics::rmse_vs_ground_truth;
    use scis_data::missing::inject_mcar;
    use scis_imputers::traits::impute_with_generator;
    use scis_imputers::GainImputer;

    /// A plain guarded run: default guard, no hooks, telemetry off.
    fn plain_train(
        imp: &mut dyn AdversarialImputer,
        ds: &Dataset,
        cfg: &DimConfig,
        rng: &mut Rng64,
    ) -> Result<DimReport, TrainingError> {
        train_dim(
            imp,
            ds,
            cfg,
            &TrainRun::default(),
            &mut GuardStats::default(),
            rng,
        )
    }

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

    fn fast_cfg() -> DimConfig {
        DimConfig {
            train: TrainConfig {
                epochs: 60,
                batch_size: 64,
                learning_rate: 0.005,
                dropout: 0.0,
            },
            lambda: LambdaMode::Relative(0.1),
            max_sinkhorn_iters: 200,
            alpha: 10.0,
            critic: None,
            loss: GenerativeLoss::MaskedSinkhorn,
            exec: ExecPolicy::default(),
            accel: AccelConfig::default(),
        }
    }

    #[test]
    fn dim_training_reduces_the_ms_loss() {
        let complete = correlated_table(300, 1);
        let mut rng = Rng64::seed_from_u64(2);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut gain = GainImputer::new(fast_cfg().train);
        let report = plain_train(&mut gain, &ds, &fast_cfg(), &mut rng).expect("dim training");
        assert_eq!(report.epoch_losses.len(), 60);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss {} -> {}", first, last);
        assert!(report.last_lambda.is_finite() && report.last_lambda > 0.0);
    }

    #[test]
    fn dim_trained_gain_beats_mean_imputation() {
        let complete = correlated_table(400, 3);
        let mut rng = Rng64::seed_from_u64(4);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut gain = GainImputer::new(fast_cfg().train);
        let _ = plain_train(&mut gain, &ds, &fast_cfg(), &mut rng).expect("dim training");
        let out = impute_with_generator(&mut gain, &ds, &mut rng);
        let e = rmse_vs_ground_truth(&ds, &complete, &out);

        let mut mean = scis_imputers::mean::MeanImputer;
        let e_mean = rmse_vs_ground_truth(
            &ds,
            &complete,
            &scis_imputers::Imputer::impute(&mut mean, &ds, &mut rng),
        );
        assert!(e < e_mean, "dim-gain {} vs mean {}", e, e_mean);
    }

    #[test]
    fn critic_mode_also_trains() {
        let complete = correlated_table(200, 5);
        let mut rng = Rng64::seed_from_u64(6);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut cfg = fast_cfg();
        cfg.train.epochs = 20;
        cfg.critic = Some(CriticConfig::default());
        let mut gain = GainImputer::new(cfg.train);
        let report = plain_train(&mut gain, &ds, &cfg, &mut rng).expect("dim training");
        assert!(report.final_loss().is_finite());
        let out = impute_with_generator(&mut gain, &ds, &mut rng);
        assert!(!out.has_nan());
    }

    #[test]
    fn sliced_wasserstein_mode_trains_and_beats_mean() {
        let complete = correlated_table(300, 9);
        let mut rng = Rng64::seed_from_u64(10);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut cfg = fast_cfg();
        cfg.loss = GenerativeLoss::SlicedWasserstein { n_projections: 24 };
        let mut gain = GainImputer::new(cfg.train);
        let report = plain_train(&mut gain, &ds, &cfg, &mut rng).expect("dim training");
        assert!(report.final_loss().is_finite());
        let out = impute_with_generator(&mut gain, &ds, &mut rng);
        let e = rmse_vs_ground_truth(&ds, &complete, &out);
        let mut mean = scis_imputers::mean::MeanImputer;
        let e_mean = rmse_vs_ground_truth(
            &ds,
            &complete,
            &scis_imputers::Imputer::impute(&mut mean, &ds, &mut rng),
        );
        assert!(e < e_mean, "sw-dim {} vs mean {}", e, e_mean);
    }

    #[test]
    fn relative_lambda_scales_with_cost() {
        let cfg = DimConfig {
            lambda: LambdaMode::Relative(0.5),
            ..Default::default()
        };
        let small = Matrix::full(4, 4, 0.1);
        let large = Matrix::full(4, 4, 10.0);
        assert!((cfg.resolve_lambda(&small) - 0.05).abs() < 1e-12);
        assert!((cfg.resolve_lambda(&large) - 5.0).abs() < 1e-12);
        let abs = DimConfig {
            lambda: LambdaMode::Absolute(130.0),
            ..Default::default()
        };
        assert_eq!(abs.resolve_lambda(&small), 130.0);
    }

    #[test]
    fn accel_training_warm_starts_and_saves_iterations() {
        let complete = correlated_table(300, 31);
        let mut rng = Rng64::seed_from_u64(32);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut cfg = fast_cfg();
        cfg.train.epochs = 12;

        let run = |accel: AccelConfig, seed: u64| {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut gain = GainImputer::new(cfg.train);
            let mut stats = GuardStats::default();
            let tel = Telemetry::collecting();
            let cfg = cfg.accel(accel);
            let run = TrainRun {
                telemetry: tel.clone(),
                ..TrainRun::default()
            };
            let report = train_dim(&mut gain, &ds, &cfg, &run, &mut stats, &mut rng)
                .expect("training failed");
            (report, stats, tel)
        };

        let (cold_report, cold_stats, cold_tel) = run(AccelConfig::default(), 33);
        let (warm_report, warm_stats, warm_tel) = run(AccelConfig::default().warm_start(true), 33);

        assert_eq!(
            warm_tel.counter(Counter::WarmStartHits),
            warm_stats.sinkhorn.warm_starts as u64
        );
        assert!(
            warm_stats.sinkhorn.warm_starts > 0,
            "no warm starts after epoch 1"
        );
        assert_eq!(cold_tel.counter(Counter::WarmStartHits), 0);
        assert!(
            warm_stats.sinkhorn.iterations < cold_stats.sinkhorn.iterations,
            "warm {} vs cold {} total iterations",
            warm_stats.sinkhorn.iterations,
            cold_stats.sinkhorn.iterations
        );
        // same fixed points within tol → the loss trajectories stay close
        let last_cold = cold_report.final_loss();
        let last_warm = warm_report.final_loss();
        assert!(
            (last_cold - last_warm).abs() < 0.05 * last_cold.abs().max(0.1),
            "loss diverged: cold {} vs warm {}",
            last_cold,
            last_warm
        );
    }

    #[test]
    fn warm_start_cache_matches_cold_training_and_saves_sweeps() {
        // a low-rank table trained full-batch, so every epoch re-solves the
        // same rows and warm-starts from the previous epoch's duals
        let (rows, d) = (60, 6);
        let mut rng = Rng64::seed_from_u64(21);
        let complete = Matrix::from_fn(rows, d, |_, j| {
            let t = rng.uniform();
            (0.6 * t + 0.2 * (j as f64 / d as f64) + rng.normal_with(0.0, 0.05)).clamp(0.0, 1.0)
        });
        let mut rng = Rng64::seed_from_u64(22);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let train = TrainConfig {
            epochs: 4,
            batch_size: rows,
            learning_rate: 0.005,
            dropout: 0.0,
        };
        // a cap the plain attempts converge within, so the escalation
        // ladder's cold restarts do not hide the warm starts
        let cfg = DimConfig::default()
            .train(train)
            .exec(ExecPolicy::Serial)
            .max_sinkhorn_iters(3000);
        let run = |accel: AccelConfig| {
            let cfg = cfg.accel(accel);
            let mut gain = GainImputer::new(cfg.train);
            let mut stats = GuardStats::default();
            let tel = Telemetry::collecting();
            let mut rng = Rng64::seed_from_u64(23);
            let run = TrainRun {
                telemetry: tel.clone(),
                ..TrainRun::default()
            };
            train_dim(&mut gain, &ds, &cfg, &run, &mut stats, &mut rng).expect("training failed");
            (tel, impute_with_generator(&mut gain, &ds, &mut rng))
        };

        let (cold_tel, cold_out) = run(AccelConfig::default());
        let (warm_tel, warm_out) = run(AccelConfig::default().warm_start(true));
        let cold = cold_tel.counter(Counter::SinkhornIterations);
        let warm = warm_tel.counter(Counter::SinkhornIterations);
        assert!(warm <= cold, "warm {warm} vs cold {cold} sweeps");
        assert!(
            warm_tel.counter(Counter::WarmStartHits) > 0,
            "no warm starts"
        );
        // warm starts move only the start, so the models agree to within
        // the solver tolerance, not bit for bit
        let diff = cold_out
            .as_slice()
            .iter()
            .zip(warm_out.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-6, "imputation max|Δ| {diff:e}");
    }

    #[test]
    fn decomposed_cost_training_stays_healthy() {
        let complete = correlated_table(250, 41);
        let mut rng = Rng64::seed_from_u64(42);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut cfg = fast_cfg().accel(AccelConfig::all());
        cfg.train.epochs = 15;
        let mut gain = GainImputer::new(cfg.train);
        let report = plain_train(&mut gain, &ds, &cfg, &mut rng).expect("dim training");
        assert_eq!(report.epoch_losses.len(), 15);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss {} -> {}", first, last);
        let out = impute_with_generator(&mut gain, &ds, &mut rng);
        assert!(!out.has_nan());
    }

    #[test]
    fn warm_start_continues_from_existing_generator() {
        let complete = correlated_table(200, 7);
        let mut rng = Rng64::seed_from_u64(8);
        let ds = inject_mcar(&complete, 0.25, &mut rng);
        let mut cfg = fast_cfg();
        cfg.train.epochs = 10;
        let mut gain = GainImputer::new(cfg.train);
        let _ = plain_train(&mut gain, &ds, &cfg, &mut rng).expect("dim training");
        let theta_after_first =
            scis_imputers::AdversarialImputer::generator_mut(&mut gain).param_vector();
        let _ = plain_train(&mut gain, &ds, &cfg, &mut rng).expect("dim training");
        let theta_after_second =
            scis_imputers::AdversarialImputer::generator_mut(&mut gain).param_vector();
        assert_ne!(
            theta_after_first, theta_after_second,
            "second run was a no-op"
        );
    }
}
